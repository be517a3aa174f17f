/**
 * @file
 * StaticProgram: the complete static code image of one synthetic
 * benchmark — a contiguous flat array of StaticInsts plus basic-block
 * and function metadata. Serves as the trace-driven simulator's
 * basic-block dictionary for wrong-path fetch.
 */

#ifndef SMTFETCH_ISA_PROGRAM_HH
#define SMTFETCH_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/basic_block.hh"
#include "isa/static_inst.hh"
#include "util/types.hh"

namespace smt
{

/** A synthetic function: a contiguous run of basic blocks. */
struct StaticFunction
{
    std::uint32_t firstBlock = 0;
    std::uint32_t numBlocks = 0;
    Addr entryPC = invalidAddr;
};

/**
 * The static code image of one benchmark. Instructions occupy a
 * contiguous address range [base, base + size), so dictionary lookup is
 * O(1).
 */
class StaticProgram
{
  public:
    StaticProgram(std::string name, Addr base);

    /**
     * @name Builder interface. Instructions are appended in place,
     * one at a time, to the open block; closeBlock ends it as one
     * basic block of the given function.
     */
    /// @{
    /** Size the storage for the whole image up front. */
    void reserve(std::size_t num_insts, std::size_t num_blocks);

    /** Append to the open block; sets the instruction's pc and
     *  block index. */
    void appendInst(const StaticInst &si);

    /** Close the open block (it must not be empty). */
    void closeBlock(std::uint32_t function_id);
    /// @}

    /** Finish construction: freeze metadata, validate layout. */
    void finalize(Addr entry_pc);

    /** Name of the modelled benchmark (e.g. "gzip"). */
    const std::string &name() const { return benchName; }

    /** First code address. */
    Addr base() const { return baseAddr; }

    /** One past the last code address. */
    Addr limit() const
    {
        return baseAddr + static_cast<Addr>(insts.size()) * instBytes;
    }

    /** Program entry point. */
    Addr entry() const { return entryPC; }

    /** Total static instruction count. */
    std::size_t numInsts() const { return insts.size(); }

    /** Total static basic-block count. */
    std::size_t numBlocks() const { return blocks.size(); }

    std::size_t numFunctions() const { return functions.size(); }

    /** Does the address fall inside this program's code? */
    bool
    contains(Addr pc) const
    {
        return pc >= baseAddr && pc < limit() &&
               ((pc - baseAddr) % instBytes) == 0;
    }

    /**
     * Dictionary lookup. @return the static instruction at pc, or
     * nullptr if pc is outside the program (wrong-path fetch into
     * unmapped space).
     */
    const StaticInst *
    lookup(Addr pc) const
    {
        if (!contains(pc))
            return nullptr;
        return &insts[(pc - baseAddr) / instBytes];
    }

    const BasicBlock &block(std::uint32_t idx) const
    {
        return blocks[idx];
    }

    const StaticFunction &function(std::uint32_t idx) const
    {
        return functions[idx];
    }

    /** Mutable instruction access for the builder (pre-finalize). */
    StaticInst &instAt(std::size_t flat_index) { return insts[flat_index]; }

    /** Mean static basic-block size in instructions. */
    double avgBlockSize() const;

  private:
    /** One past the last instruction of a closed block. */
    Addr
    closedLimit() const
    {
        return blocks.empty() ? baseAddr : blocks.back().endPC();
    }

    std::string benchName;
    Addr baseAddr;
    Addr entryPC = invalidAddr;
    bool finalized = false;

    std::vector<StaticInst> insts;
    std::vector<BasicBlock> blocks;
    std::vector<StaticFunction> functions;
};

} // namespace smt

#endif // SMTFETCH_ISA_PROGRAM_HH
