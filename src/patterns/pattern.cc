#include "patterns/pattern.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"

namespace multigrain {

namespace {

/// Stable per-substream seed derivation so a row's random draw does not
/// depend on the order rows are materialized in.
std::uint64_t
substream_seed(std::uint64_t seed, index_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

const char *
to_string(AtomicKind kind)
{
    switch (kind) {
      case AtomicKind::kLocal:
        return "local";
      case AtomicKind::kDilated:
        return "dilated";
      case AtomicKind::kGlobal:
        return "global";
      case AtomicKind::kSelected:
        return "selected";
      case AtomicKind::kRandom:
        return "random";
      case AtomicKind::kClusteredRandom:
        return "clustered_random";
      case AtomicKind::kBlockedLocal:
        return "blocked_local";
      case AtomicKind::kBlockedRandom:
        return "blocked_random";
    }
    return "?";
}

AtomicPattern
AtomicPattern::local(index_t window)
{
    MG_CHECK(window >= 0) << "local window must be non-negative";
    AtomicPattern p;
    p.kind = AtomicKind::kLocal;
    p.window = window;
    return p;
}

AtomicPattern
AtomicPattern::dilated(index_t window, index_t stride)
{
    MG_CHECK(window >= 0 && stride >= 1)
        << "dilated pattern needs window >= 0 and stride >= 1";
    AtomicPattern p;
    p.kind = AtomicKind::kDilated;
    p.window = window;
    p.stride = stride;
    return p;
}

AtomicPattern
AtomicPattern::global(std::vector<index_t> tokens)
{
    AtomicPattern p;
    p.kind = AtomicKind::kGlobal;
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    p.tokens = std::move(tokens);
    return p;
}

AtomicPattern
AtomicPattern::selected(std::vector<index_t> tokens)
{
    AtomicPattern p;
    p.kind = AtomicKind::kSelected;
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    p.tokens = std::move(tokens);
    return p;
}

AtomicPattern
AtomicPattern::random(index_t count, std::uint64_t seed)
{
    MG_CHECK(count >= 0) << "random count must be non-negative";
    AtomicPattern p;
    p.kind = AtomicKind::kRandom;
    p.count = count;
    p.seed = seed;
    return p;
}

AtomicPattern
AtomicPattern::clustered_random(index_t block, index_t blocks_per_row,
                                index_t count, std::uint64_t seed)
{
    MG_CHECK(block > 0 && blocks_per_row > 0 && count >= 0)
        << "clustered_random needs block > 0, blocks_per_row > 0, "
        << "count >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kClusteredRandom;
    p.block = block;
    p.window = blocks_per_row;
    p.count = count;
    p.seed = seed;
    return p;
}

AtomicPattern
AtomicPattern::blocked_local(index_t block, index_t window)
{
    MG_CHECK(block > 0 && window >= 0)
        << "blocked_local needs block > 0 and window >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kBlockedLocal;
    p.block = block;
    p.window = window;
    return p;
}

AtomicPattern
AtomicPattern::blocked_random(index_t block, index_t count,
                              std::uint64_t seed)
{
    MG_CHECK(block > 0 && count >= 0)
        << "blocked_random needs block > 0 and count >= 0";
    AtomicPattern p;
    p.kind = AtomicKind::kBlockedRandom;
    p.block = block;
    p.count = count;
    p.seed = seed;
    return p;
}

void
AtomicPattern::append_row_columns(index_t seq_len, index_t valid_len,
                                  index_t row,
                                  std::vector<index_t> &out) const
{
    if (row >= valid_len) {
        return;  // Zero-padded query rows attend to nothing.
    }
    switch (kind) {
      case AtomicKind::kLocal: {
        const index_t lo = std::max<index_t>(0, row - window);
        const index_t hi = std::min<index_t>(valid_len - 1, row + window);
        for (index_t c = lo; c <= hi; ++c) {
            out.push_back(c);
        }
        break;
      }
      case AtomicKind::kDilated: {
        out.push_back(row);  // The current token is always attended.
        for (index_t m = 1; m <= window; ++m) {
            const index_t left = row - m * stride;
            const index_t right = row + m * stride;
            if (left >= 0) {
                out.push_back(left);
            }
            if (right < valid_len) {
                out.push_back(right);
            }
        }
        break;
      }
      case AtomicKind::kGlobal: {
        if (std::binary_search(tokens.begin(), tokens.end(), row)) {
            for (index_t c = 0; c < valid_len; ++c) {
                out.push_back(c);
            }
        }
        break;
      }
      case AtomicKind::kSelected: {
        for (const index_t t : tokens) {
            if (t < valid_len) {
                out.push_back(t);
            }
        }
        break;
      }
      case AtomicKind::kRandom: {
        // Bernoulli draws with mean `count` per row. Per-row counts vary,
        // which is what makes random patterns a load-imbalance stress for
        // row-mapped kernels (§5.2.1, §5.3).
        Rng rng(substream_seed(seed, row));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(count) /
                                      static_cast<double>(valid_len)));
        for (index_t c = 0; c < valid_len; ++c) {
            if (rng.next_float() < p) {
                out.push_back(c);
            }
        }
        break;
      }
      case AtomicKind::kClusteredRandom: {
        const index_t block_row = row / block;
        const index_t block_cols = ceil_div(seq_len, block);
        // The cluster block-columns are fixed per block row so rows in a
        // block row share them (as block-level random configs do).
        Rng cluster_rng(substream_seed(seed, block_row));
        const index_t nclusters = std::min<index_t>(window, block_cols);
        const std::vector<index_t> clusters =
            cluster_rng.sample_distinct(block_cols, nclusters);
        // Per-row element draws inside the clusters.
        Rng rng(substream_seed(seed ^ 0x2545f4914f6cdd1dull, row));
        const double candidates =
            static_cast<double>(nclusters) * static_cast<double>(block);
        const float p = static_cast<float>(
            std::min(1.0, static_cast<double>(count) / candidates));
        for (const index_t bc : clusters) {
            const index_t end = std::min(valid_len, (bc + 1) * block);
            for (index_t c = bc * block; c < end; ++c) {
                if (rng.next_float() < p) {
                    out.push_back(c);
                }
            }
        }
        break;
      }
      case AtomicKind::kBlockedLocal: {
        const index_t block_row = row / block;
        const index_t block_cols = ceil_div(seq_len, block);
        const index_t lo = std::max<index_t>(0, block_row - window);
        const index_t hi = std::min<index_t>(block_cols - 1,
                                             block_row + window);
        for (index_t bc = lo; bc <= hi; ++bc) {
            const index_t end = std::min(valid_len, (bc + 1) * block);
            for (index_t c = bc * block; c < end; ++c) {
                out.push_back(c);
            }
        }
        break;
      }
      case AtomicKind::kBlockedRandom: {
        const index_t block_row = row / block;
        const index_t block_cols = ceil_div(seq_len, block);
        Rng rng(substream_seed(seed, block_row));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(count) /
                                      static_cast<double>(block_cols)));
        for (index_t bc = 0; bc < block_cols; ++bc) {
            if (rng.next_float() >= p) {
                continue;
            }
            const index_t end = std::min(valid_len, (bc + 1) * block);
            for (index_t c = bc * block; c < end; ++c) {
                out.push_back(c);
            }
        }
        break;
      }
    }
}

bool
AtomicPattern::is_coarse() const
{
    switch (kind) {
      case AtomicKind::kLocal:
      case AtomicKind::kBlockedLocal:
      case AtomicKind::kBlockedRandom:
        return true;
      case AtomicKind::kDilated:
      case AtomicKind::kSelected:
      case AtomicKind::kRandom:
      case AtomicKind::kClusteredRandom:
      case AtomicKind::kGlobal:
        return false;
    }
    return false;
}

bool
AtomicPattern::is_special() const
{
    return kind == AtomicKind::kGlobal;
}

std::string
AtomicPattern::describe() const
{
    std::ostringstream os;
    os << to_string(kind);
    switch (kind) {
      case AtomicKind::kLocal:
        os << "(w=" << window << ")";
        break;
      case AtomicKind::kDilated:
        os << "(w=" << window << ", s=" << stride << ")";
        break;
      case AtomicKind::kGlobal:
      case AtomicKind::kSelected:
        os << "(" << tokens.size() << " tokens)";
        break;
      case AtomicKind::kRandom:
        os << "(" << count << "/row)";
        break;
      case AtomicKind::kClusteredRandom:
        os << "(" << count << "/row in " << window << " blocks)";
        break;
      case AtomicKind::kBlockedLocal:
        os << "(b=" << block << ", w=" << window << ")";
        break;
      case AtomicKind::kBlockedRandom:
        os << "(b=" << block << ", " << count << "/brow)";
        break;
    }
    return os.str();
}

namespace {

/// FNV-1a, the same folding for every field so the hash does not depend
/// on struct layout or platform integer widths.
struct Fnv64 {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void mix(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

}  // namespace

std::uint64_t
CompoundPattern::fingerprint() const
{
    Fnv64 fnv;
    fnv.mix(static_cast<std::uint64_t>(seq_len));
    fnv.mix(static_cast<std::uint64_t>(valid_len));
    fnv.mix(causal ? 1 : 0);
    fnv.mix(static_cast<std::uint64_t>(atoms.size()));
    for (const AtomicPattern &atom : atoms) {
        fnv.mix(static_cast<std::uint64_t>(atom.kind));
        fnv.mix(static_cast<std::uint64_t>(atom.window));
        fnv.mix(static_cast<std::uint64_t>(atom.stride));
        fnv.mix(static_cast<std::uint64_t>(atom.count));
        fnv.mix(static_cast<std::uint64_t>(atom.block));
        fnv.mix(atom.seed);
        fnv.mix(static_cast<std::uint64_t>(atom.tokens.size()));
        for (const index_t token : atom.tokens) {
            fnv.mix(static_cast<std::uint64_t>(token));
        }
    }
    return fnv.h;
}

std::string
CompoundPattern::describe() const
{
    std::ostringstream os;
    os << "L=" << seq_len;
    if (valid_len != 0 && valid_len != seq_len) {
        os << " (valid " << valid_len << ")";
    }
    if (causal) {
        os << " (causal)";
    }
    for (std::size_t i = 0; i < atoms.size(); ++i) {
        os << (i == 0 ? ": " : " + ") << atoms[i].describe();
    }
    return os.str();
}

}  // namespace multigrain
