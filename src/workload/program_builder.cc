#include "workload/program_builder.hh"

#include <algorithm>
#include <cmath>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/trace.hh"

namespace smt
{

namespace
{

/** Terminator categories assigned in layout pass 1. */
enum class TermType : unsigned char
{
    Cond,
    Jump,
    Call,
    Ret,
    Indirect,
};

struct BlockSpec
{
    std::uint32_t funcId = 0;
    std::uint32_t sizeInsts = 1;   // includes terminator
    TermType term = TermType::Cond;
    Addr startPC = 0;
    std::uint32_t indexInFunc = 0;
    std::uint32_t funcFirstBlock = 0;
    std::uint32_t funcNumBlocks = 0;

    /** Forced cond-branch target (driver loop back-edges). */
    std::int32_t forcedCondTarget = -1;

    /** Forced loop trip count (driver phase length; 0 = none). */
    std::uint32_t forcedTrip = 0;
};

/** Rotating general-purpose register pool: r1..r27. */
constexpr RegIndex gprPoolBase = 1;
constexpr unsigned gprPoolSize = 27;

/** Dedicated pointer-chase chain register. */
constexpr RegIndex chaseReg = 28;

class Builder
{
  public:
    Builder(const BenchmarkProfile &prof, Addr code_base, Addr data_base,
            std::uint64_t seed, double size_scale)
        : profile(prof),
          rng(prof.name, (seed + prof.seedSalt) ^ 0xb10cULL),
          codeBase(code_base), dataBase(data_base),
          dataBytes(static_cast<Addr>(prof.workingSetKB) * 1024),
          sizeScale(size_scale)
    {
    }

    BenchmarkImage
    build()
    {
        layoutBlocks();

        BenchmarkImage img{profile,
                           StaticProgram(profile.name, codeBase),
                           {}, {}, {}, dataBase, dataBytes, sizeScale};

        std::size_t num_insts = 0;
        for (const auto &spec : specs)
            num_insts += spec.sizeInsts;
        img.program.reserve(num_insts, specs.size());
        for (const auto &spec : specs) {
            materialize(spec, img);
            img.program.closeBlock(spec.funcId);
        }

        img.program.finalize(specs.front().startPC);
        return img;
    }

  private:
    /** Pass 1: choose per-function block counts, sizes, terminators. */
    void
    layoutBlocks()
    {
        const double avg_bb = profile.avgBlockSize * sizeScale;
        const auto total_insts =
            static_cast<std::uint64_t>(profile.codeKB) * 1024 / instBytes;
        const auto target_blocks = std::max<std::uint64_t>(
            16, static_cast<std::uint64_t>(total_insts / avg_bb));

        std::uint32_t func_id = 0;
        std::uint64_t blocks_made = 0;
        while (blocks_made < target_blocks) {
            auto in_func = std::max<unsigned>(
                2, rng.positiveGeometric(profile.blocksPerFunction,
                                         static_cast<unsigned>(
                                             profile.blocksPerFunction * 4)));
            if (func_id == 0)
                in_func = std::max<unsigned>(in_func, 25);
            std::uint32_t first = static_cast<std::uint32_t>(specs.size());
            for (unsigned b = 0; b < in_func; ++b) {
                BlockSpec s;
                s.funcId = func_id;
                s.indexInFunc = b;
                s.funcFirstBlock = first;
                s.funcNumBlocks = in_func;
                // Low-variance size draw: the dynamic average is
                // dominated by each phase's small hot block set, so a
                // long-tailed distribution would make the measured
                // Table 1 statistic swing phase to phase.
                double factor = 0.55 + 0.9 * rng.uniform();
                s.sizeInsts = std::max<unsigned>(
                    2, static_cast<unsigned>(avg_bb * factor + 0.5));
                s.term = chooseTerm(b, in_func);
                if (func_id == 0)
                    shapeDriverBlock(s, b, in_func);
                specs.push_back(s);
            }
            blocks_made += in_func;
            ++func_id;
        }
        numFunctions = func_id;

        // Functions form a call DAG (calls only target higher ids), so
        // the last function must not contain calls.
        for (auto &s : specs) {
            if (s.funcId == numFunctions - 1 && s.term == TermType::Call)
                s.term = TermType::Jump;
        }

        // Compute addresses.
        Addr pc = codeBase;
        for (auto &s : specs) {
            s.startPC = pc;
            pc += static_cast<Addr>(s.sizeInsts) * instBytes;
        }
    }

    /**
     * Function 0 is the phase driver: groups of call sites closed by a
     * long-trip loop back-edge. Execution camps on one group's callee
     * subtree for many iterations before moving to the next — the
     * phased hot-code locality real programs exhibit.
     */
    void
    shapeDriverBlock(BlockSpec &s, unsigned b, unsigned in_func)
    {
        if (b + 1 == in_func)
            return; // closing jump handled in materialize
        if (b % 8 == 7) {
            s.term = TermType::Cond;
            s.forcedCondTarget =
                static_cast<std::int32_t>(s.funcFirstBlock + b - 7);
            // Short phases: a measurement window must average many of
            // them, or per-phase behaviour differences dominate.
            s.forcedTrip = std::max<unsigned>(
                3, rng.positiveGeometric(10.0, 32));
        } else {
            s.term = TermType::Call;
        }
    }

    TermType
    chooseTerm(unsigned index_in_func, unsigned func_blocks)
    {
        bool is_last = index_in_func + 1 == func_blocks;
        if (is_last) {
            // Function 0 is the driver: its last block restarts it.
            return specs.empty() || specs.back().funcId != 0
                       ? TermType::Ret
                       : TermType::Ret; // overwritten below for func 0
        }
        double u = rng.uniform();
        double c = profile.condFrac;
        if (u < c)
            return TermType::Cond;
        u -= c;
        if (u < profile.jumpFrac)
            return TermType::Jump;
        u -= profile.jumpFrac;
        if (u < profile.callFrac)
            return TermType::Call;
        u -= profile.callFrac;
        if (u < profile.retFrac)
            return TermType::Ret;
        return TermType::Indirect;
    }

    /** Address of a block by global index. */
    Addr blockAddr(std::uint32_t idx) const { return specs[idx].startPC; }

    /** Pick a forward block in the same function (strictly later). */
    std::uint32_t
    pickForward(const BlockSpec &s, std::uint32_t global_idx)
    {
        std::uint32_t last = s.funcFirstBlock + s.funcNumBlocks - 1;
        if (global_idx >= last)
            return last;
        // Prefer near targets: geometric distance.
        std::uint32_t span = last - global_idx;
        std::uint32_t d = std::min<std::uint32_t>(
            span, rng.positiveGeometric(3.0, 8));
        return global_idx + d;
    }

    /** Pick a backward block in the same function (loop head). */
    std::uint32_t
    pickBackward(const BlockSpec &s, std::uint32_t global_idx)
    {
        if (global_idx == s.funcFirstBlock)
            return global_idx; // self loop head
        std::uint32_t span = global_idx - s.funcFirstBlock;
        std::uint32_t d = std::min<std::uint32_t>(
            span, rng.positiveGeometric(3.0, 8));
        return global_idx - d;
    }

    /** Pick a callee function id (> caller: call DAG, no recursion). */
    std::uint32_t
    pickCallee(std::uint32_t caller)
    {
        if (caller + 1 >= numFunctions)
            return caller; // converted to Jump earlier; defensive
        std::uint32_t span = numFunctions - caller - 1;
        double u = rng.uniform();
        // Cubic skew: strongly prefer nearby (hot) callees.
        auto off = static_cast<std::uint32_t>(span * u * u * u);
        if (off >= span)
            off = span - 1;
        return caller + 1 + off;
    }

    Addr
    functionEntry(std::uint32_t func_id) const
    {
        for (const auto &s : specs)
            if (s.funcId == func_id)
                return s.startPC;
        panic("function %u not found", func_id);
    }

    /** Pass 2: append one block's instructions to the program. */
    void
    materialize(const BlockSpec &s, BenchmarkImage &img)
    {
        std::uint32_t global_idx = static_cast<std::uint32_t>(
            &s - specs.data());

        bool is_func_last = s.indexInFunc + 1 == s.funcNumBlocks;
        bool has_term = true;
        TermType term = s.term;
        if (is_func_last)
            term = s.funcId == 0 ? TermType::Jump : TermType::Ret;

        unsigned body = s.sizeInsts - (has_term ? 1 : 0);
        for (unsigned i = 0; i < body; ++i)
            img.program.appendInst(makeBodyInst(img));

        StaticInst t;
        switch (term) {
          case TermType::Cond: {
            t.op = OpClass::CondBranch;
            t.modelId = static_cast<std::uint32_t>(
                img.branchModels.size());
            if (s.forcedCondTarget >= 0) {
                // Driver phase loop: long-trip back-edge.
                t.target = blockAddr(
                    static_cast<std::uint32_t>(s.forcedCondTarget));
                img.branchModels.push_back(
                    BranchModel::makeLoop(s.forcedTrip));
            } else {
                bool backward = rng.chance(profile.backwardFrac) &&
                                global_idx > s.funcFirstBlock;
                std::uint32_t tgt = backward
                                        ? pickBackward(s, global_idx)
                                        : pickForward(s, global_idx);
                t.target = blockAddr(tgt);
                img.branchModels.push_back(makeCondModel(backward));
            }
            break;
          }
          case TermType::Jump: {
            t.op = OpClass::Jump;
            // Function 0's closing jump restarts the driver loop; all
            // other jumps go strictly forward (guarantees progress).
            if (is_func_last && s.funcId == 0) {
                t.target = specs.front().startPC;
            } else {
                t.target = blockAddr(pickForward(s, global_idx));
            }
            break;
          }
          case TermType::Call: {
            t.op = OpClass::CallDirect;
            t.target = functionEntry(pickCallee(s.funcId));
            break;
          }
          case TermType::Ret: {
            t.op = OpClass::Return;
            t.target = invalidAddr;
            break;
          }
          case TermType::Indirect: {
            t.op = OpClass::JumpIndirect;
            unsigned n = 2 + static_cast<unsigned>(rng.below(5));
            std::vector<Addr> targets;
            for (unsigned k = 0; k < n; ++k)
                targets.push_back(blockAddr(pickForward(s, global_idx)));
            t.target = targets[0];
            t.src1 = nextSrcReg();
            t.modelId = static_cast<std::uint32_t>(
                img.indirectModels.size());
            double dom = 0.70 + 0.25 * rng.uniform();
            img.indirectModels.emplace_back(std::move(targets), dom,
                                            rng.next());
            break;
          }
        }
        if (t.op == OpClass::CondBranch)
            t.src1 = nextSrcReg();
        img.program.appendInst(t);
    }

    BranchModel
    makeCondModel(bool backward)
    {
        if (backward) {
            unsigned trip = std::max<unsigned>(
                2, rng.positiveGeometric(
                       profile.loopTripMean,
                       static_cast<unsigned>(profile.loopTripMean * 4)));
            return BranchModel::makeLoop(trip);
        }
        double u = rng.uniform();
        if (u < profile.corrFrac) {
            // Correlated branches mostly follow the recent control
            // path (visible to both path- and outcome-history
            // predictors); a minority follow raw outcome history.
            if (rng.chance(0.25)) {
                unsigned bits =
                    2 + static_cast<unsigned>(rng.below(
                            std::max(1u, profile.corrHistoryBits)));
                return BranchModel::makeCorrelated(bits, rng.next());
            }
            unsigned depth = 1 + static_cast<unsigned>(rng.below(2));
            return BranchModel::makeCorrelatedPath(depth, rng.next());
        }
        u -= profile.corrFrac;
        if (u < profile.randomFrac)
            return BranchModel::makeRandom(rng.next());
        // Biased: forward branches lean not-taken.
        double p = rng.chance(0.70) ? 0.02 + 0.13 * rng.uniform()
                                    : 0.85 + 0.13 * rng.uniform();
        return BranchModel::makeBiased(p, rng.next());
    }

    StaticInst
    makeBodyInst(BenchmarkImage &img)
    {
        StaticInst si;
        double u = rng.uniform();
        if (u < profile.loadFrac) {
            si.op = OpClass::Load;
            assignMemModel(si, img, /*is_load=*/true);
        } else if (u < profile.loadFrac + profile.storeFrac) {
            si.op = OpClass::Store;
            assignMemModel(si, img, /*is_load=*/false);
        } else if (u < profile.loadFrac + profile.storeFrac +
                           profile.intMultFrac) {
            si.op = OpClass::IntMult;
            si.src1 = nextSrcReg();
            si.src2 = nextSrcReg();
            si.dst = nextDstReg();
        } else if (u < profile.loadFrac + profile.storeFrac +
                           profile.intMultFrac + profile.fpFrac) {
            si.op = OpClass::FpAlu;
            si.src1 = nextFpSrcReg();
            si.src2 = nextFpSrcReg();
            si.dst = nextFpDstReg();
        } else {
            si.op = OpClass::IntAlu;
            si.src1 = nextSrcReg();
            si.src2 = rng.chance(0.5) ? nextSrcReg() : invalidReg;
            si.dst = nextDstReg();
        }
        return si;
    }

    void
    assignMemModel(StaticInst &si, BenchmarkImage &img, bool is_load)
    {
        si.modelId = static_cast<std::uint32_t>(img.memModels.size());
        const Addr hot_bytes =
            static_cast<Addr>(profile.hotKB) * 1024;

        double u = rng.uniform();
        if (is_load && u < profile.chaseFrac) {
            // True dependence chain through the chase register,
            // wandering the whole working set (pointer chasing).
            si.src1 = chaseReg;
            si.dst = chaseReg;
            img.memModels.push_back(MemoryModel::makeChase(
                dataBase, dataBytes, hot_bytes, profile.hotProb * 0.8,
                rng.next()));
            return;
        }
        u = is_load ? u - profile.chaseFrac : u;
        if (u < profile.stackFrac) {
            // Stack/locals: a tiny, always-hot region.
            unsigned strides[] = {8, 8, 16, 16};
            img.memModels.push_back(MemoryModel::makeStride(
                dataBase, 4096, strides[rng.below(4)]));
        } else if (u < profile.stackFrac + profile.strideFrac) {
            // Sequential walk of one of the program's shared arrays:
            // strong spatial locality, like real buffer processing.
            Addr array = arrayRegion();
            unsigned strides[] = {8, 8, 8, 16};
            img.memModels.push_back(MemoryModel::makeStride(
                array, arrayBytes, strides[rng.below(4)]));
        } else {
            // Irregular access over the working set with a hot subset.
            img.memModels.push_back(MemoryModel::makeRandom(
                dataBase, dataBytes, hot_bytes, profile.hotProb,
                rng.next()));
        }
        if (is_load) {
            si.src1 = nextSrcReg();
            si.dst = nextDstReg();
        } else {
            si.src1 = nextSrcReg();
            si.src2 = nextSrcReg(); // store data operand
        }
    }

    /** Pick one of the program's shared array regions. */
    Addr
    arrayRegion()
    {
        // Arrays tile the working set after the 4KB stack region.
        // Strong zipf-like skew: most static accesses share the first
        // few arrays, so the active stride footprint stays cache
        // sized (real programs process a couple of buffers at once).
        Addr usable = dataBytes > 8192 ? dataBytes - 4096 : 4096;
        unsigned count = static_cast<unsigned>(usable / arrayBytes);
        if (count == 0)
            return dataBase;
        double u = rng.uniform();
        auto idx = static_cast<unsigned>(count * u * u * u);
        if (idx >= count)
            idx = count - 1;
        // De-phase array bases by a pseudo-random line count so the
        // arrays do not stack on a couple of cache-set positions
        // (arrayBytes divides the way size, which would otherwise
        // cause systematic self-conflicts).
        Addr skew = (mix64(0x5e77 ^ idx) % 48) * 64;
        return dataBase + 4096 + static_cast<Addr>(idx) * arrayBytes +
               skew;
    }

    static constexpr Addr arrayBytes = 8 * 1024;

    RegIndex
    nextDstReg()
    {
        RegIndex r = static_cast<RegIndex>(gprPoolBase +
                                           (dstCounter % gprPoolSize));
        ++dstCounter;
        return r;
    }

    /** Source from one of the depWindow most recent destinations. */
    RegIndex
    nextSrcReg()
    {
        unsigned window = std::max(1u, profile.depWindow);
        std::uint64_t back = 1 + rng.below(window);
        std::uint64_t idx =
            (dstCounter + gprPoolSize * 4 - back) % gprPoolSize;
        return static_cast<RegIndex>(gprPoolBase + idx);
    }

    RegIndex
    nextFpDstReg()
    {
        RegIndex r = static_cast<RegIndex>(fpCounter % 28);
        ++fpCounter;
        return r;
    }

    RegIndex
    nextFpSrcReg()
    {
        unsigned window = std::max(1u, profile.depWindow);
        std::uint64_t back = 1 + rng.below(window);
        return static_cast<RegIndex>((fpCounter + 28 * 4 - back) % 28);
    }

    const BenchmarkProfile &profile;
    Rng rng;
    Addr codeBase;
    Addr dataBase;
    Addr dataBytes;
    double sizeScale;

    std::vector<BlockSpec> specs;
    std::uint32_t numFunctions = 0;
    std::uint64_t dstCounter = 0;
    std::uint64_t fpCounter = 0;
};

} // namespace

BenchmarkImage
buildImage(const BenchmarkProfile &profile, Addr code_base,
           Addr data_base, std::uint64_t seed)
{
    // The dynamic average basic-block size (what Table 1 reports) is
    // dominated by the benchmark's hot loops, whose block sizes are a
    // small sample of the static size distribution. Calibrate by
    // rebuilding with a scaled draw mean until the measured dynamic
    // average is within tolerance of the profile target.
    double scale = 1.0;
    for (int iter = 0; ; ++iter) {
        BenchmarkImage img =
            buildImageAtScale(profile, code_base, data_base, seed, scale);

        if (iter >= 4)
            return img;

        SyntheticTraceStream probe(img);
        for (int i = 0; i < 200'000; ++i)
            probe.next();
        double measured = probe.stats().avgBlockSize();
        if (measured <= 0.0)
            return img;
        double ratio = profile.avgBlockSize / measured;
        if (ratio > 0.97 && ratio < 1.03)
            return img;
        scale *= ratio;
        if (scale < 0.3)
            scale = 0.3;
        if (scale > 4.0)
            scale = 4.0;
    }
}

// Pinned to a cache-line boundary: the builder's loops are inlined
// here, and their speed moved by ~20% with the start address mod 64,
// so set-up time followed the size of unrelated code linked before
// this file.
__attribute__((aligned(64))) BenchmarkImage
buildImageAtScale(const BenchmarkProfile &profile, Addr code_base,
                  Addr data_base, std::uint64_t seed, double size_scale)
{
    return Builder(profile, code_base, data_base, seed, size_scale).build();
}

} // namespace smt
