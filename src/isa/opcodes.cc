#include "isa/opcodes.hh"

#include "common/logging.hh"

namespace specslice::isa::opcodes_detail
{

void
badOpcode(std::size_t idx)
{
    SS_PANIC("bad opcode ", idx);
}

} // namespace specslice::isa::opcodes_detail
