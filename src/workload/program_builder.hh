/**
 * @file
 * Construction of a complete synthetic benchmark image: static program
 * (CFG + instructions) plus the per-instruction behaviour models that
 * drive its dynamic trace.
 */

#ifndef SMTFETCH_WORKLOAD_PROGRAM_BUILDER_HH
#define SMTFETCH_WORKLOAD_PROGRAM_BUILDER_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "workload/branch_model.hh"
#include "workload/memory_model.hh"
#include "workload/profiles.hh"

namespace smt
{

/**
 * Everything needed to execute one synthetic benchmark: the static
 * code image and the behaviour models indexed by StaticInst::modelId.
 */
struct BenchmarkImage
{
    BenchmarkProfile profile;
    StaticProgram program;

    /** Models for conditional branches (modelId space). */
    std::vector<BranchModel> branchModels;

    /** Models for indirect jumps (separate modelId space). */
    std::vector<IndirectModel> indirectModels;

    /** Models for loads and stores (separate modelId space). */
    std::vector<MemoryModel> memModels;

    /** Base of this benchmark's data region. */
    Addr dataBase = 0;

    /** Size of the data region in bytes. */
    Addr dataBytes = 0;

    /**
     * Scale applied to the profile's mean static block size when the
     * image was built: the value buildImage's calibration settled on,
     * or the one passed to buildImageAtScale. Rebuilding with the same
     * profile, bases, seed and scale reproduces this image exactly.
     */
    double sizeScale = 1.0;
};

/**
 * Build a benchmark image, calibrating its block-size scale.
 *
 * The builder is rerun (up to five passes, each after a 200k-record
 * probe of the previous image) until the dynamic average basic-block
 * size is within 3% of profile.avgBlockSize. The result equals
 * buildImageAtScale(profile, code_base, data_base, seed,
 * result.sizeScale).
 *
 * The construction is fully deterministic in (profile, code_base,
 * data_base, seed); two builds with identical arguments produce
 * identical programs and traces.
 *
 * @param profile Benchmark parameterization.
 * @param code_base First code address (per-thread distinct).
 * @param data_base First data address (per-thread distinct).
 * @param seed Extra seed salt (usually 0).
 */
BenchmarkImage buildImage(const BenchmarkProfile &profile, Addr code_base,
                          Addr data_base, std::uint64_t seed = 0);

/**
 * Build a benchmark image in one builder pass at a given block-size
 * scale, with no calibration probe. Deterministic in (profile,
 * code_base, data_base, seed, size_scale).
 */
BenchmarkImage buildImageAtScale(const BenchmarkProfile &profile,
                                 Addr code_base, Addr data_base,
                                 std::uint64_t seed, double size_scale);

} // namespace smt

#endif // SMTFETCH_WORKLOAD_PROGRAM_BUILDER_HH
