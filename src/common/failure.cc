#include "common/failure.hh"

namespace specslice
{

namespace
{

/** Throw-mode nesting depth for the current thread. */
thread_local unsigned tls_throw_depth = 0;

} // namespace

const char *
SimError::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Panic:
        return "panic";
      case Kind::Fatal:
        return "fatal";
    }
    return "unknown";
}

ScopedThrowErrors::ScopedThrowErrors() { ++tls_throw_depth; }

ScopedThrowErrors::~ScopedThrowErrors() { --tls_throw_depth; }

bool
ScopedThrowErrors::active()
{
    return tls_throw_depth > 0;
}

namespace failure_detail
{

[[noreturn]] void
throwError(SimError::Kind kind, const char *file, int line,
           const std::string &msg)
{
    std::string what = SimError::kindName(kind);
    what += ": ";
    what += msg;
    what += " (";
    what += file;
    what += ":";
    what += std::to_string(line);
    what += ")";
    throw SimError(kind, what);
}

} // namespace failure_detail

} // namespace specslice
