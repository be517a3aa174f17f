#include "isa/program.hh"

#include "util/logging.hh"

namespace smt
{

StaticProgram::StaticProgram(std::string name, Addr base)
    : benchName(std::move(name)), baseAddr(base)
{
    if (base % instBytes != 0)
        fatal("program base 0x%llx not instruction-aligned",
              (unsigned long long)base);
}

void
StaticProgram::reserve(std::size_t num_insts, std::size_t num_blocks)
{
    insts.reserve(num_insts);
    blocks.reserve(num_blocks);
}

void
StaticProgram::appendInst(const StaticInst &si)
{
    if (finalized)
        panic("appendInst after finalize");
    Addr pc = limit();
    StaticInst &slot = insts.emplace_back(si);
    slot.pc = pc;
    slot.blockIndex = static_cast<std::uint32_t>(blocks.size());
}

void
StaticProgram::closeBlock(std::uint32_t function_id)
{
    if (finalized)
        panic("closeBlock after finalize");

    BasicBlock bb;
    bb.startPC = closedLimit();
    bb.numInsts =
        static_cast<std::uint32_t>((limit() - bb.startPC) / instBytes);
    if (bb.numInsts == 0)
        panic("empty basic block");
    bb.index = static_cast<std::uint32_t>(blocks.size());
    bb.functionId = function_id;

    if (functions.size() <= function_id)
        functions.resize(function_id + 1);
    StaticFunction &fn = functions[function_id];
    if (fn.numBlocks == 0) {
        fn.firstBlock = bb.index;
        fn.entryPC = bb.startPC;
    }
    ++fn.numBlocks;

    blocks.push_back(bb);
}

void
StaticProgram::finalize(Addr entry_pc)
{
    if (finalized)
        panic("double finalize");
    if (insts.empty())
        panic("finalize of empty program");
    if (closedLimit() != limit())
        panic("finalize with an open block");
    if (!contains(entry_pc))
        panic("entry pc outside program");
    entryPC = entry_pc;
    finalized = true;
}

double
StaticProgram::avgBlockSize() const
{
    if (blocks.empty())
        return 0.0;
    return static_cast<double>(insts.size()) /
           static_cast<double>(blocks.size());
}

} // namespace smt
