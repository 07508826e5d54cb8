/**
 * @file
 * Static validation of hand-constructed speculative slices against the
 * paper's construction rules (Sections 3-5). Slice authoring is
 * error-prone (it is assembly plus five kinds of annotations), so the
 * validator catches the mistakes that would otherwise show up as
 * silent mis-correlation:
 *
 *  - the slice code exists, is store-free and uses no indirect control;
 *  - every PGI lies inside the slice and writes a value;
 *  - every problem branch is a conditional branch in the main program;
 *  - kill PCs exist in the main program;
 *  - declared live-ins are read before being overwritten, and no other
 *    register is consumed uninitialized;
 *  - a slice with a loop declares a back-edge inside the slice and a
 *    positive iteration limit.
 */

#ifndef SPECSLICE_SLICE_VALIDATOR_HH
#define SPECSLICE_SLICE_VALIDATOR_HH

#include <string>
#include <vector>

#include "isa/program.hh"
#include "slice/descriptor.hh"

namespace specslice::slice
{

/** One validation finding. */
struct SliceIssue
{
    enum class Severity
    {
        Error,    ///< the slice will malfunction
        Warning,  ///< suspicious; probably a mistake
    };

    Severity severity = Severity::Error;
    std::string message;
};

/** Result of validating one descriptor. */
struct SliceValidation
{
    std::vector<SliceIssue> issues;

    bool
    ok() const
    {
        for (const SliceIssue &i : issues)
            if (i.severity == SliceIssue::Severity::Error)
                return false;
        return true;
    }

    std::size_t
    errorCount() const
    {
        std::size_t n = 0;
        for (const SliceIssue &i : issues)
            n += (i.severity == SliceIssue::Severity::Error);
        return n;
    }

    /** All messages joined, one per line (for error reporting). */
    std::string summary() const;
};

/** Validate desc against the program it will run in. */
SliceValidation validateSlice(const SliceDescriptor &desc,
                              const isa::Program &program);

/**
 * Static instructions in desc's loop (Table 3's parenthesised size):
 * from the back-edge's target through the back-edge itself. 0 when
 * desc declares no backward back-edge in program.
 */
unsigned loopStaticSize(const SliceDescriptor &desc,
                        const isa::Program &program);

} // namespace specslice::slice

#endif // SPECSLICE_SLICE_VALIDATOR_HH
