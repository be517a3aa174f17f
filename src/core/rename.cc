#include "core/rename.hh"

#include "sim/checkpoint.hh"
#include "util/logging.hh"

namespace smt
{

RenameUnit::RenameUnit(unsigned phys_int, unsigned phys_fp,
                       unsigned num_threads)
    : physIntCount(phys_int), physFpCount(phys_fp)
{
    reset(num_threads);
}

void
RenameUnit::reset(unsigned num_threads)
{
    intMap.assign(num_threads,
                  std::vector<RegIndex>(numArchIntRegs, invalidReg));
    fpMap.assign(num_threads,
                 std::vector<RegIndex>(numArchFpRegs, invalidReg));
    freeInt.clear();
    freeFp.clear();
    readyInt.assign(physIntCount, 0);
    readyFp.assign(physFpCount, 0);

    // Architectural state owns the first num_threads * 32 registers of
    // each class; those values exist and are ready.
    unsigned next_int = 0;
    unsigned next_fp = 0;
    for (unsigned t = 0; t < num_threads; ++t) {
        for (unsigned a = 0; a < numArchIntRegs; ++a) {
            intMap[t][a] = static_cast<RegIndex>(next_int);
            readyInt[next_int] = 1;
            ++next_int;
        }
        for (unsigned a = 0; a < numArchFpRegs; ++a) {
            fpMap[t][a] = static_cast<RegIndex>(next_fp);
            readyFp[next_fp] = 1;
            ++next_fp;
        }
    }
    for (unsigned p = next_int; p < physIntCount; ++p)
        freeInt.push_back(static_cast<RegIndex>(p));
    for (unsigned p = next_fp; p < physFpCount; ++p)
        freeFp.push_back(static_cast<RegIndex>(p));
}

bool
RenameUnit::canAllocate(bool fp) const
{
    return fp ? !freeFp.empty() : !freeInt.empty();
}

void
RenameUnit::rename(DynInst &inst)
{
    if (inst.si == nullptr)
        return; // wrong-path filler has no operands

    bool fp = usesFpRegs(inst.op);
    auto &map = fp ? fpMap[inst.tid] : intMap[inst.tid];

    if (inst.si->src1 != invalidReg)
        inst.physSrc1 = map[inst.si->src1];
    if (inst.si->src2 != invalidReg)
        inst.physSrc2 = map[inst.si->src2];

    if (inst.si->dst != invalidReg) {
        auto &free = fp ? freeFp : freeInt;
        if (free.empty())
            panic("rename without a free register");
        RegIndex phys = free.back();
        free.pop_back();
        inst.archDst = inst.si->dst;
        inst.dstIsFp = fp;
        inst.prevPhysDst = map[inst.archDst];
        inst.physDst = phys;
        map[inst.archDst] = phys;
        (fp ? readyFp : readyInt)[static_cast<std::size_t>(phys)] = 0;
    }
}

void
RenameUnit::commit(DynInst &inst)
{
    if (inst.physDst == invalidReg || inst.prevPhysDst == invalidReg)
        return;
    if (inst.dstIsFp)
        freeFp.push_back(inst.prevPhysDst);
    else
        freeInt.push_back(inst.prevPhysDst);
}

void
RenameUnit::rollback(DynInst &inst)
{
    if (inst.physDst == invalidReg)
        return;
    auto &map = inst.dstIsFp ? fpMap[inst.tid] : intMap[inst.tid];
    map[inst.archDst] = inst.prevPhysDst;
    if (inst.dstIsFp)
        freeFp.push_back(inst.physDst);
    else
        freeInt.push_back(inst.physDst);
    inst.physDst = invalidReg;
}

void
RenameUnit::markReady(RegIndex phys, bool fp)
{
    if (phys == invalidReg)
        return;
    (fp ? readyFp : readyInt)[static_cast<std::size_t>(phys)] = 1;
}

namespace
{

void
saveRegVector(CheckpointWriter &w, const std::vector<RegIndex> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (RegIndex reg : v)
        w.i16(reg);
}

/**
 * @param phys_count Physical registers in the class: every entry
 *        must be invalidReg or a valid index (out-of-range values
 *        would index the ready scoreboards out of bounds later).
 * @param expected Required element count, or SIZE_MAX for "any".
 */
void
restoreRegVector(CheckpointReader &r, std::vector<RegIndex> &v,
                 const char *what, unsigned phys_count,
                 std::size_t expected = std::size_t(-1))
{
    std::uint32_t n =
        static_cast<std::uint32_t>(r.checkCount(r.u32(), 2, what));
    if (expected != std::size_t(-1) && n != expected)
        r.fail(csprintf("%s holds %u entries but this configuration "
                        "uses %zu",
                        what, n, expected));
    v.resize(n);
    for (RegIndex &reg : v) {
        reg = r.i16();
        if (reg != invalidReg &&
            (reg < 0 || static_cast<unsigned>(reg) >= phys_count))
            r.fail(csprintf("%s references physical register %d, "
                            "valid range is [0, %u) (corrupt "
                            "payload)",
                            what, (int)reg, phys_count));
    }
}

void
saveReadyBits(CheckpointWriter &w, const std::vector<std::uint8_t> &v)
{
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint8_t ready : v)
        w.b(ready != 0);
}

void
restoreReadyBits(CheckpointReader &r, std::vector<std::uint8_t> &v,
                 std::size_t expected, const char *what)
{
    std::uint32_t n = r.u32();
    if (n != expected)
        r.fail(csprintf("%s scoreboard holds %u entries but this "
                        "configuration uses %zu",
                        what, n, expected));
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = r.b();
}

} // namespace

void
RenameUnit::save(CheckpointWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(intMap.size()));
    for (const auto &m : intMap)
        saveRegVector(w, m);
    for (const auto &m : fpMap)
        saveRegVector(w, m);
    saveRegVector(w, freeInt);
    saveRegVector(w, freeFp);
    saveReadyBits(w, readyInt);
    saveReadyBits(w, readyFp);
}

void
RenameUnit::restore(CheckpointReader &r)
{
    std::uint32_t threads = r.u32();
    if (threads != intMap.size())
        r.fail(csprintf("rename maps cover %u threads but this "
                        "configuration uses %zu",
                        threads, intMap.size()));
    for (auto &m : intMap)
        restoreRegVector(r, m, "int map", physIntCount,
                         numArchIntRegs);
    for (auto &m : fpMap)
        restoreRegVector(r, m, "fp map", physFpCount,
                         numArchFpRegs);
    restoreRegVector(r, freeInt, "int free list", physIntCount);
    restoreRegVector(r, freeFp, "fp free list", physFpCount);
    if (freeInt.size() > physIntCount || freeFp.size() > physFpCount)
        r.fail("free list larger than the physical register file "
               "(corrupt payload)");
    restoreReadyBits(r, readyInt, physIntCount, "int ready");
    restoreReadyBits(r, readyFp, physFpCount, "fp ready");
}

} // namespace smt
