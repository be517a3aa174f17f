/**
 * @file
 * Reorder buffer: per-thread in-order instruction lists over
 * fixed-capacity ring buffers (SMTSIM-style active lists). The rings
 * own every in-flight DynInst; commit pops the front, squash pops the
 * back, so slots are stable and pointers to live instructions stay
 * valid until the instruction leaves and its slot is eventually
 * reused.
 */

#ifndef SMTFETCH_CORE_ROB_HH
#define SMTFETCH_CORE_ROB_HH

#include <vector>

#include "core/dyn_inst.hh"
#include "util/logging.hh"
#include "util/ring_buffer.hh"
#include "util/types.hh"

namespace smt
{

/** Per-thread in-flight instruction storage. */
class Rob
{
  public:
    /**
     * @param num_threads Hardware thread count.
     * @param capacity_per_thread Upper bound on one thread's
     *        in-flight instructions, fetched-but-undispatched ones
     *        included (robEntries + fetch buffer + decode and rename
     *        latches for the core's configuration).
     */
    Rob(unsigned num_threads, unsigned capacity_per_thread)
        : lists(num_threads),
          ckptRings(num_threads,
                    std::vector<EngineCheckpoint>(capacity_per_thread)),
          ckptNext(num_threads, 0), nextSeq(num_threads, 1)
    {
        for (auto &list : lists)
            list.setCapacity(capacity_per_thread);
    }

    /** Create the next dynamic instruction for a thread. */
    DynInst &
    create(ThreadID tid)
    {
        auto &list = lists[tid];
        if (list.full())
            panic("ROB ring overflow on thread %d (capacity %u)", tid,
                  list.capacity());
        DynInst &inst = list.emplace_back();
        inst.tid = tid;
        inst.seq = nextSeq[tid]++;
        return inst;
    }

    bool empty(ThreadID tid) const { return lists[tid].empty(); }

    /** Hardware threads this ROB was sized for. */
    unsigned numThreads() const
    {
        return static_cast<unsigned>(lists.size());
    }

    /** Per-thread ring capacity (checkpoint restore bound). */
    unsigned capacity() const { return lists[0].capacity(); }

    std::size_t size(ThreadID tid) const { return lists[tid].size(); }

    /** Oldest in-flight instruction of the thread. */
    DynInst &
    head(ThreadID tid)
    {
        if (lists[tid].empty())
            panic("ROB head on empty thread %d", tid);
        return lists[tid].front();
    }

    DynInst &
    youngest(ThreadID tid)
    {
        if (lists[tid].empty())
            panic("ROB youngest on empty thread %d", tid);
        return lists[tid].back();
    }

    void popHead(ThreadID tid) { lists[tid].pop_front(); }
    void popYoungest(ThreadID tid) { lists[tid].pop_back(); }

    /**
     * @name Per-thread checkpoint ring.
     * Fetch takes one slot per fetch chunk and every instruction of
     * the chunk points at it (DynInst::ckpt). Slots are taken in
     * program order, and each slot from the oldest in-flight
     * instruction's to the newest is referenced by at least one
     * in-flight instruction, as long as every squash hands back the
     * slots younger than the offender's. So at most capacity() slots
     * are live and a ring of that size never reuses a live slot.
     */
    /// @{
    /** The thread's next free slot (its contents are stale). */
    EngineCheckpoint &
    newCheckpoint(ThreadID tid)
    {
        auto &ring = ckptRings[tid];
        std::size_t &next = ckptNext[tid];
        EngineCheckpoint &slot = ring[next];
        next = next + 1 == ring.size() ? 0 : next + 1;
        return slot;
    }

    /** Squash: free every slot taken after `keep`, a slot of the
     *  thread's ring that stays in use. */
    void
    releaseCheckpointsAfter(ThreadID tid, const EngineCheckpoint *keep)
    {
        auto &ring = ckptRings[tid];
        std::size_t i = static_cast<std::size_t>(keep - ring.data());
        ckptNext[tid] = i + 1 == ring.size() ? 0 : i + 1;
    }
    /// @}

    /**
     * Lookup by sequence number; nullptr if the instruction has been
     * committed or squashed. Sequence numbers are strictly increasing
     * within the list but can have holes: a squash pops the youngest
     * entries without rewinding the per-thread sequence counter
     * (squashed numbers may still be referenced from the completion
     * wheel, so reuse would alias old events onto new instructions),
     * and the next fetched instruction continues past the gap. In the
     * common hole-free window the offset from the head sequence IS
     * the index (O(1)); only a window that still contains a squash
     * gap falls back to binary search.
     */
    DynInst *
    find(ThreadID tid, InstSeqNum seq)
    {
        auto &list = lists[tid];
        if (list.empty())
            return nullptr;
        const InstSeqNum first = list.front().seq;
        const InstSeqNum last = list.back().seq;
        if (seq < first || seq > last)
            return nullptr;
        if (last - first + 1 == list.size()) {
            // Dense window: seq-offset indexing.
            DynInst &inst = list[static_cast<std::size_t>(seq - first)];
            return &inst;
        }
        std::size_t lo = 0;
        std::size_t hi = list.size();
        while (lo < hi) {
            std::size_t mid = lo + (hi - lo) / 2;
            if (list[mid].seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == list.size() || list[lo].seq != seq)
            return nullptr;
        return &list[lo];
    }

    /** Index-based access (0 = oldest), for diagnostics/walks. */
    DynInst &at(ThreadID tid, std::size_t idx) { return lists[tid][idx]; }
    const DynInst &
    at(ThreadID tid, std::size_t idx) const
    {
        return lists[tid][idx];
    }

    void
    reset()
    {
        for (auto &list : lists)
            list.clear();
        for (auto &next : ckptNext)
            next = 0;
        for (auto &seq : nextSeq)
            seq = 1;
    }

    /** @name Checkpoint support (sequence counters travel with the
     *  serialized instruction lists; see SmtCore::saveState). */
    /// @{
    InstSeqNum nextSeqOf(ThreadID tid) const { return nextSeq[tid]; }

    void
    setNextSeq(ThreadID tid, InstSeqNum seq)
    {
        if (!lists[tid].empty() && seq <= lists[tid].back().seq)
            panic("ROB next-seq %llu not past youngest in-flight %llu",
                  (unsigned long long)seq,
                  (unsigned long long)lists[tid].back().seq);
        nextSeq[tid] = seq;
    }
    /// @}

  private:
    std::vector<RingBuffer<DynInst>> lists;
    std::vector<std::vector<EngineCheckpoint>> ckptRings;
    std::vector<std::size_t> ckptNext; //!< next slot to hand out
    std::vector<InstSeqNum> nextSeq;
};

} // namespace smt

#endif // SMTFETCH_CORE_ROB_HH
