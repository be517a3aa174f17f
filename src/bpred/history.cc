#include "bpred/history.hh"

#include "util/logging.hh"

namespace smt
{

PathHistory::PathHistory(unsigned depth, unsigned older_bits,
                         unsigned last_bits, unsigned current_bits)
    : depth(depth), olderBits(older_bits), lastBits(last_bits),
      currentBits(current_bits)
{
    if (depth == 0 || depth > maxDepth)
        panic("PathHistory depth %u out of range", depth);
}

void
PathHistory::push(Addr a)
{
    state.pos = static_cast<std::uint8_t>((state.pos + 1) % depth);
    state.ring[state.pos] = a;
}

std::uint64_t
PathHistory::index(Addr current, unsigned index_bits) const
{
    // Current address contributes the most bits, the previous start
    // fewer, older starts least — decreasing path correlation weight.
    std::uint64_t idx = bits(current >> 2, 0, currentBits);
    unsigned rot = currentBits > 4 ? currentBits - 4 : 1;

    // Entry i back sits at ring slot (pos - i) mod depth and shifts
    // by (rot + i * olderBits) mod index_bits; both step by one
    // conditional wrap per entry.
    unsigned q = state.pos;
    unsigned shift = rot % index_bits;
    const unsigned step = olderBits % index_bits;
    idx ^= bits(state.ring[q] >> 2, 0, lastBits) << shift;

    for (unsigned i = 1; i < depth; ++i) {
        q = q == 0 ? depth - 1 : q - 1;
        shift += step;
        if (shift >= index_bits)
            shift -= index_bits;
        std::uint64_t contrib = bits(state.ring[q] >> 2, 0, olderBits);
        idx ^= contrib << shift;
    }
    return idx & mask(index_bits);
}

} // namespace smt
