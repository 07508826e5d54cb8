#include "obs/events.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"

namespace specslice::obs
{

namespace
{

constexpr const char *kindNames[] = {
    "fetch",           "issue",          "retire",
    "squash",          "slice.fork",     "slice.end",
    "corr.entry",      "corr.create",    "corr.bound",
    "corr.used",       "corr.killed",    "corr.overflow",
    "region",          "mem.dmiss",      "mem.istall",
    "mem.wbfull",
};
static_assert(sizeof(kindNames) / sizeof(kindNames[0]) ==
              static_cast<unsigned>(EventKind::NumKinds));

} // namespace

const char *
eventKindName(EventKind k)
{
    return kindNames[static_cast<unsigned>(k)];
}

EventBuffer::EventBuffer(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
    SS_ASSERT(capacity > 0, "event buffer needs capacity");
}

void
EventBuffer::clear()
{
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

void
EventBuffer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";

    // Name the process and one track (Chrome "thread") per event
    // kind, so fetch/retire/squash and the correlator lifecycle land
    // on separate, labeled rows in the viewer.
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"tid\": 0, \"args\": {\"name\": \"specslice\"}}";
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::NumKinds);
         ++k) {
        os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 0, \"tid\": "
           << k + 1 << ", \"args\": {\"name\": \"" << kindNames[k]
           << "\"}}";
        // Pin viewer row order to enum order.
        os << ",\n{\"name\": \"thread_sort_index\", \"ph\": \"M\", "
              "\"pid\": 0, \"tid\": "
           << k + 1 << ", \"args\": {\"sort_index\": " << k + 1 << "}}";
    }

    forEach([&](const TraceEvent &e) {
        unsigned k = static_cast<unsigned>(e.kind);
        char name[64];
        if (e.kind == EventKind::Region) {
            // One clearly-named span per sampled region: index in
            // the name, start instruction in the args (seq).
            std::snprintf(name, sizeof(name), "region %" PRIu64,
                          e.arg);
        } else {
            std::snprintf(name, sizeof(name), "%s", kindNames[k]);
        }
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            ",\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %" PRIu64
            ", \"dur\": %" PRIu64 ", \"pid\": 0, \"tid\": %u, "
            "\"args\": {\"pc\": \"0x%" PRIx64 "\", \"seq\": %" PRIu64
            ", \"thread\": %u, \"arg\": %" PRIu64 "}}",
            name, e.cycle, e.dur, k + 1, e.pc, e.seq,
            static_cast<unsigned>(e.thread), e.arg);
        os << buf;
    });

    os << "\n]";
    if (dropped_)
        os << ", \"droppedEvents\": " << dropped_;
    os << "}\n";
}

} // namespace specslice::obs
