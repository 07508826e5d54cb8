/**
 * @file
 * Slice-validator tests: a well-formed slice passes; each class of
 * authoring mistake (stores in slices, undeclared live-ins, missing
 * kills, runaway loops, out-of-body PGIs...) is caught. Also checks
 * that every shipped workload's slices validate cleanly.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "slice/validator.hh"
#include "workloads/workloads.hh"

using namespace specslice;
using namespace specslice::isa;
using namespace specslice::slice;

namespace
{

struct Fixture
{
    Program prog;
    SliceDescriptor sd;
};

/** A minimal valid main program + loop slice. */
Fixture
makeValid()
{
    Fixture s;
    Assembler as(0x10000);
    as.label("fork");
    as.addi(1, 1, 1);
    as.label("branch");
    as.beq(1, "kill");
    as.label("loopkill");
    as.addi(2, 2, 1);
    as.label("kill");
    as.halt();
    s.prog.addSection(as.finish());
    auto sym = as.symbols();

    Assembler sl(0x8000);
    sl.label("slice");
    sl.ldq(3, 21, 0);
    sl.label("pgi");
    sl.cmpeqi(regZero, 3, 0);
    sl.label("backedge");
    sl.br("slice");
    s.prog.addSection(sl.finish());
    auto ssym = sl.symbols();

    s.sd.name = "valid";
    s.sd.forkPc = sym.at("fork");
    s.sd.slicePc = ssym.at("slice");
    s.sd.staticSize = 3;
    s.sd.liveIns = {21};
    s.sd.maxLoopIters = 8;
    s.sd.loopBackEdgePc = ssym.at("backedge");
    PgiSpec pgi;
    pgi.sliceInstPc = ssym.at("pgi");
    pgi.problemBranchPc = sym.at("branch");
    pgi.loopKillPc = sym.at("loopkill");
    pgi.sliceKillPc = sym.at("kill");
    s.sd.pgis = {pgi};
    return s;
}

} // namespace

TEST(Validator, AcceptsWellFormedSlice)
{
    Fixture s = makeValid();
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_TRUE(v.ok()) << v.summary();
}

TEST(Validator, RejectsUnmappedForkPc)
{
    Fixture s = makeValid();
    s.sd.forkPc = 0xdead0;
    EXPECT_FALSE(validateSlice(s.sd, s.prog).ok());
}

TEST(Validator, RejectsUndeclaredLiveIn)
{
    Fixture s = makeValid();
    s.sd.liveIns.clear();  // r21 now read-before-written, undeclared
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.summary().find("r21"), std::string::npos);
}

TEST(Validator, RejectsStoreInSlice)
{
    Fixture s = makeValid();
    Assembler sl(0x9000);
    sl.label("slice");
    sl.stq(1, 21, 0);  // illegal
    sl.sliceEnd();
    s.prog.addSection(sl.finish());
    s.sd.slicePc = 0x9000;
    s.sd.staticSize = 2;
    s.sd.maxLoopIters = 0;
    s.sd.loopBackEdgePc = invalidAddr;
    s.sd.pgis.clear();
    s.sd.prefetchLoadPcs = {};
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.summary().find("store"), std::string::npos);
}

TEST(Validator, LoopStaticSizeSpansBackEdgeTargetToBackEdge)
{
    Fixture s = makeValid();
    // ldq, cmpeqi, br slice: the back-edge targets the first of them.
    EXPECT_EQ(loopStaticSize(s.sd, s.prog), 3u);
    s.sd.loopBackEdgePc = s.sd.slicePc + instBytes;  // not a branch
    EXPECT_EQ(loopStaticSize(s.sd, s.prog), 0u);
    s.sd.loopBackEdgePc = invalidAddr;
    EXPECT_EQ(loopStaticSize(s.sd, s.prog), 0u);
}

TEST(Validator, RejectsRunawayLoop)
{
    Fixture s = makeValid();
    s.sd.maxLoopIters = 0;  // back-edge declared but no limit
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.summary().find("runaway"), std::string::npos);
}

TEST(Validator, RejectsPgiOutsideSlice)
{
    Fixture s = makeValid();
    s.sd.pgis[0].sliceInstPc = s.sd.forkPc;  // main-thread PC
    EXPECT_FALSE(validateSlice(s.sd, s.prog).ok());
}

TEST(Validator, RejectsNonBranchProblemPc)
{
    Fixture s = makeValid();
    s.sd.pgis[0].problemBranchPc = s.sd.forkPc;  // an addi
    EXPECT_FALSE(validateSlice(s.sd, s.prog).ok());
}

TEST(Validator, RejectsMissingSliceKill)
{
    Fixture s = makeValid();
    s.sd.pgis[0].sliceKillPc = invalidAddr;
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.summary().find("slice-kill"), std::string::npos);
}

TEST(Validator, RejectsSkipFirstWithoutLoopKill)
{
    Fixture s = makeValid();
    s.sd.pgis[0].loopKillPc = invalidAddr;
    s.sd.pgis[0].loopKillSkipFirst = true;
    EXPECT_FALSE(validateSlice(s.sd, s.prog).ok());
}

TEST(Validator, WarnsOnUselessSlice)
{
    Fixture s = makeValid();
    s.sd.pgis.clear();
    auto v = validateSlice(s.sd, s.prog);
    EXPECT_TRUE(v.ok());  // warnings only
    EXPECT_NE(v.summary().find("neither predictions nor prefetches"),
              std::string::npos);
}

TEST(Validator, EveryShippedWorkloadValidates)
{
    workloads::Params p;
    p.scale = 100'000;
    for (const auto &name : workloads::allWorkloadNames()) {
        auto wl = workloads::buildWorkload(name, p);
        for (const auto &sd : wl.slices) {
            auto v = validateSlice(sd, wl.program);
            EXPECT_TRUE(v.ok())
                << name << "/" << sd.name << ":\n" << v.summary();
            EXPECT_EQ(v.errorCount(), 0u);
        }
    }
}
