/**
 * @file
 * Fixed-capacity ring buffer with deque-like ends: the storage that
 * backs the core's per-cycle queues (ROB instruction lists, FTQ; the
 * fetch buffer and latches are counts over the ROB lists). All slots
 * are allocated once at setCapacity(); pushes and pops move two
 * indices, so steady-state simulation performs zero heap allocation
 * and elements keep stable addresses while they are live (a slot is
 * only reused after its element was popped and capacity-many pushes
 * went by).
 *
 * Unlike std::deque, pop_front/pop_back do NOT destroy the element:
 * the popped object stays constructed in its slot until a later push
 * overwrites it (emplace_back resets it to T{}). For payloads owning
 * resources (the FTQ's block predictions hold shared RAS snapshots)
 * this retains the resource for up to capacity-many pushes — bounded,
 * and the price of keeping the pop hot path to an index move.
 */

#ifndef SMTFETCH_UTIL_RING_BUFFER_HH
#define SMTFETCH_UTIL_RING_BUFFER_HH

#include <bit>
#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace smt
{

/** Bounded FIFO/LIFO-at-the-ends queue over preallocated slots. */
template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(unsigned capacity) { setCapacity(capacity); }

    /**
     * (Re)size the buffer; discards any contents. The slot array is
     * rounded up to a power of two so indexing is a mask, but full()
     * still triggers at the requested logical capacity.
     */
    void
    setCapacity(unsigned capacity)
    {
        cap = capacity;
        slots.clear();
        slots.resize(std::bit_ceil(capacity < 1u ? 1u : capacity));
        mask = slots.size() - 1;
        head = 0;
        count = 0;
    }

    unsigned capacity() const { return cap; }
    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    std::size_t size() const { return count; }

    T &
    front()
    {
        if (empty())
            panic("ring buffer front() on empty buffer");
        return slots[head];
    }

    const T &
    front() const
    {
        if (empty())
            panic("ring buffer front() on empty buffer");
        return slots[head];
    }

    T &
    back()
    {
        if (empty())
            panic("ring buffer back() on empty buffer");
        return slots[(head + count - 1) & mask];
    }

    const T &
    back() const
    {
        if (empty())
            panic("ring buffer back() on empty buffer");
        return slots[(head + count - 1) & mask];
    }

    /** Index-based access, 0 = oldest. */
    T &operator[](std::size_t idx) { return slots[(head + idx) & mask]; }
    const T &
    operator[](std::size_t idx) const
    {
        return slots[(head + idx) & mask];
    }

    void
    push_back(const T &v)
    {
        emplace_slot() = v;
    }

    /** Append a default-reset element and return it (slot reuse). */
    T &
    emplace_back()
    {
        T &slot = emplace_slot();
        slot = T{};
        return slot;
    }

    void
    pop_front()
    {
        if (empty())
            panic("ring buffer pop_front() on empty buffer");
        head = (head + 1) & mask;
        --count;
    }

    void
    pop_back()
    {
        if (empty())
            panic("ring buffer pop_back() on empty buffer");
        --count;
    }

    /** Drop all elements (slots are retained for reuse). */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    T &
    emplace_slot()
    {
        if (full())
            panic("ring buffer overflow (capacity %u)", cap);
        T &slot = slots[(head + count) & mask];
        ++count;
        return slot;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
    unsigned cap = 0;
};

} // namespace smt

#endif // SMTFETCH_UTIL_RING_BUFFER_HH
