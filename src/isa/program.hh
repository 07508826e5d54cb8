/**
 * @file
 * A Program is the static code image of a workload: one or more code
 * sections (e.g. the main program and its speculative slices, which the
 * paper stores "as normal instructions in the instruction cache") plus
 * a symbol table.
 */

#ifndef SPECSLICE_ISA_PROGRAM_HH
#define SPECSLICE_ISA_PROGRAM_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace specslice::isa
{

/** A contiguous run of instructions at a base address. */
struct CodeSection
{
    Addr base = 0;
    std::vector<Instruction> code;

    Addr end() const { return base + code.size() * instBytes; }
    bool
    contains(Addr pc) const
    {
        return pc >= base && pc < end() && (pc - base) % instBytes == 0;
    }
};

/** The complete static code image of a workload. */
class Program
{
  public:
    /**
     * Widest address span (in instructions) the O(1) PC-indexed
     * decode array covers. addSection refuses a layout whose sections
     * spread further apart.
     */
    static constexpr std::size_t flatIndexLimit = 1u << 20;

    Program() = default;
    // The decode array points into the sections' instruction storage:
    // copies rebuild it against their own storage. Moves transfer the
    // heap buffers, so the array stays valid and moves stay cheap.
    Program(const Program &other)
        : sections_(other.sections_), symbols_(other.symbols_)
    {
        rebuildIndex();
    }
    Program &
    operator=(const Program &other)
    {
        if (this != &other) {
            sections_ = other.sections_;
            symbols_ = other.symbols_;
            rebuildIndex();
        }
        return *this;
    }
    Program(Program &&) = default;
    Program &operator=(Program &&) = default;

    /** Add a section; sections must not overlap, and together they
     *  must span at most flatIndexLimit instructions (fatal if not). */
    void addSection(CodeSection section);

    /** Merge symbols (label -> address). */
    void addSymbols(const std::map<std::string, Addr> &symbols);

    /**
     * @return the instruction at pc, or nullptr if unmapped.
     *
     * Hot path of the fetch stage: a contiguous decode array built at
     * load maps pc to its instruction in O(1) with no per-section
     * scan. Purely const, so one Program may be fetched from by many
     * concurrently-running simulations.
     */
    const Instruction *
    fetch(Addr pc) const
    {
        Addr off = pc - flatBase_;  // wraps below flatBase_: off huge
        if (off < flatSpan_) {
            if (off % instBytes != 0)
                return nullptr;
            return flat_[off / instBytes];
        }
        // Outside the array, which covers every section.
        return nullptr;
    }

    /** @return true if pc holds an instruction. */
    bool contains(Addr pc) const { return fetch(pc) != nullptr; }

    /** @return the address of a label; fatal if undefined. */
    Addr symbol(const std::string &name) const;

    /** @return true if the label is defined. */
    bool hasSymbol(const std::string &name) const;

    /** @return total static instruction count across sections. */
    std::size_t staticSize() const;

    /** Sections, sorted by base address. */
    const std::vector<CodeSection> &sections() const { return sections_; }
    const std::map<std::string, Addr> &symbols() const { return symbols_; }

    /** Disassemble every section (for debugging / examples). */
    std::string disassemble() const;

  private:
    /** Rebuild the PC-indexed decode array after a section change. */
    void rebuildIndex();

    std::vector<CodeSection> sections_;
    std::map<std::string, Addr> symbols_;

    /**
     * O(1) decode index: flat_[(pc - flatBase_) / instBytes] is the
     * instruction at pc (nullptr in inter-section gaps). Empty when
     * there are no sections.
     * flatSpan_ is the covered byte span (0 when empty), so the fetch
     * fast path is a single range check.
     */
    std::vector<const Instruction *> flat_;
    Addr flatBase_ = 0;
    Addr flatSpan_ = 0;
};

} // namespace specslice::isa

#endif // SPECSLICE_ISA_PROGRAM_HH
