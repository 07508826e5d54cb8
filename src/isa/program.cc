#include "isa/program.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace specslice::isa
{

void
Program::addSection(CodeSection section)
{
    SS_ASSERT(section.base % instBytes == 0, "misaligned section base");
    for (const auto &s : sections_) {
        bool disjoint = section.end() <= s.base || section.base >= s.end();
        SS_ASSERT(disjoint, "overlapping code sections");
    }
    // The decode array must cover the whole layout.
    Addr lo = section.base;
    Addr hi = section.end();
    if (!sections_.empty()) {
        lo = std::min(lo, sections_.front().base);
        hi = std::max(hi, sections_.back().end());
    }
    if ((hi - lo) / instBytes > flatIndexLimit)
        SS_FATAL("code sections span ", (hi - lo) / instBytes,
                 " instructions (0x", std::hex, lo, " to 0x", hi,
                 std::dec, "), more than the ", flatIndexLimit,
                 " the decode array covers");
    // Keep sections sorted by base: the decode array spans first to
    // last.
    auto pos = std::upper_bound(
        sections_.begin(), sections_.end(), section.base,
        [](Addr base, const CodeSection &s) { return base < s.base; });
    sections_.insert(pos, std::move(section));
    rebuildIndex();
}

void
Program::rebuildIndex()
{
    flat_.clear();
    flatBase_ = 0;
    flatSpan_ = 0;
    if (sections_.empty())
        return;

    Addr lo = sections_.front().base;
    Addr hi = sections_.back().end();
    std::size_t span_insts = (hi - lo) / instBytes;
    flat_.assign(span_insts, nullptr);
    for (const auto &s : sections_) {
        std::size_t idx = (s.base - lo) / instBytes;
        for (const Instruction &inst : s.code)
            flat_[idx++] = &inst;
    }
    flatBase_ = lo;
    flatSpan_ = hi - lo;
}

void
Program::addSymbols(const std::map<std::string, Addr> &symbols)
{
    for (const auto &[name, addr] : symbols) {
        auto [it, inserted] = symbols_.emplace(name, addr);
        if (!inserted && it->second != addr)
            SS_FATAL("conflicting definitions of symbol '", name, "'");
    }
}

Addr
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        SS_FATAL("undefined symbol '", name, "'");
    return it->second;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symbols_.find(name) != symbols_.end();
}

std::size_t
Program::staticSize() const
{
    std::size_t n = 0;
    for (const auto &s : sections_)
        n += s.code.size();
    return n;
}

std::string
Program::disassemble() const
{
    // Invert the symbol table so labels annotate their addresses.
    std::map<Addr, std::string> labels;
    for (const auto &[name, addr] : symbols_)
        labels[addr] = name;

    std::ostringstream os;
    for (const auto &s : sections_) {
        os << "section @ 0x" << std::hex << s.base << std::dec << ":\n";
        Addr pc = s.base;
        for (const auto &inst : s.code) {
            auto it = labels.find(pc);
            if (it != labels.end())
                os << it->second << ":\n";
            os << "  0x" << std::hex << pc << std::dec << ":  "
               << inst.disassemble() << '\n';
            pc += instBytes;
        }
    }
    return os.str();
}

} // namespace specslice::isa
