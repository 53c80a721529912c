// Tests for the slice-and-dice classifier (paper §3.1): the partition
// property (coarse ⊎ fine ⊎ special == full pattern, no double coverage),
// mode behaviour, overlap invalidation, and the global-routing ablation.

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "formats/convert.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

CompoundPattern
longformer_like(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(8));
    p.atoms.push_back(AtomicPattern::selected({0, 5, seq / 2, seq - 3}));
    p.atoms.push_back(AtomicPattern::global({0, 5, seq / 2, seq - 3}));
    return p;
}

TEST(SliceTest, MultigrainSplitsIntoThreeParts)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    EXPECT_TRUE(plan.has_special());
    EXPECT_EQ(plan.global_rows.size(), 4u);
    plan.validate_partition();
}

TEST(SliceTest, CoarseOnlyBlockifiesEverything)
{
    SliceOptions options;
    options.block = 16;
    options.mode = SliceMode::kCoarseOnly;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_FALSE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    // Every valid element of the full pattern is stored in some block.
    EXPECT_EQ(plan.coarse->total_valid(), plan.full->nnz());
    plan.validate_partition();
}

TEST(SliceTest, FineOnlyKeepsFullLayout)
{
    SliceOptions options;
    options.block = 16;
    options.mode = SliceMode::kFineOnly;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_FALSE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    EXPECT_EQ(plan.fine->nnz(), plan.full->nnz());
    plan.validate_partition();
}

TEST(SliceTest, OverlapBetweenCoarseAndFineInvalidated)
{
    // Selected tokens inside the local band: the fine part must not
    // duplicate elements the coarse band already owns (§3.3).
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(
        AtomicPattern::selected({10, 11, 12}));  // Near the diagonal.
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    plan.validate_partition();
    // Row 10 attends column 10 via both atoms; only the coarse part may
    // keep it, so the fine row 10 must not contain column 10.
    if (plan.has_fine()) {
        for (index_t i = plan.fine->row_offsets[10];
             i < plan.fine->row_offsets[11]; ++i) {
            EXPECT_NE(plan.fine->col_indices[static_cast<std::size_t>(i)],
                      10);
        }
    }
}

TEST(SliceTest, GlobalRowsCarvedOutOfOtherParts)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    for (const index_t g : plan.global_rows) {
        EXPECT_EQ(coarse_csr.row_nnz(g), 0) << "global row " << g;
        EXPECT_EQ(plan.fine->row_nnz(g), 0) << "global row " << g;
    }
}

TEST(SliceTest, GlobalRoutingAblationKeepsGlobalsFine)
{
    SliceOptions options;
    options.block = 16;
    options.route_global_to_dense = false;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_FALSE(plan.has_special());
    // Global row 0 is dense across coarse + fine (overlap invalidation
    // leaves the band elements with the coarse part).
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    EXPECT_EQ(plan.fine->row_nnz(0) + coarse_csr.row_nnz(0), 128);
    EXPECT_GT(plan.fine->row_nnz(0), 100);  // Most of the row stays fine.
    plan.validate_partition();
}

TEST(SliceTest, PureCoarsePatternHasNoFinePart)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::local(8));
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_FALSE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    plan.validate_partition();
}

TEST(SliceTest, PureFinePatternHasNoCoarsePart)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::random(6, 3));
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_FALSE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    plan.validate_partition();
}

TEST(SliceTest, ZeroPaddingPropagatesToParts)
{
    CompoundPattern p = longformer_like(128);
    p.valid_len = 100;
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_EQ(plan.valid_len, 100);
    plan.validate_partition();
    // Padded rows are empty in every part.
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    for (index_t r = 100; r < 128; ++r) {
        EXPECT_EQ(coarse_csr.row_nnz(r), 0);
        EXPECT_EQ(plan.fine->row_nnz(r), 0);
    }
    // Global tokens beyond valid_len are dropped.
    for (const index_t g : plan.global_rows) {
        EXPECT_LT(g, 100);
    }
}

TEST(SliceTest, SeqLenMustBeBlockMultiple)
{
    CompoundPattern p;
    p.seq_len = 100;
    p.atoms.push_back(AtomicPattern::local(4));
    EXPECT_THROW(slice_and_dice(p, {.block = 16}), Error);
}

TEST(SliceTest, ElementCountsAreConsistent)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    EXPECT_EQ(plan.coarse_valid_elements() + plan.fine_elements() +
                  plan.special_elements(),
              plan.full->nnz());
    EXPECT_GE(plan.coarse_stored_elements(), plan.coarse_valid_elements());
}

// Partition property across every evaluation preset and mode.
class SlicePartitionTest
    : public ::testing::TestWithParam<std::tuple<int, SliceMode>> {};

TEST_P(SlicePartitionTest, PartitionExact)
{
    const auto [pattern_idx, mode] = GetParam();
    const auto patterns = fig9_patterns(256, 0.08, 17);
    SliceOptions options;
    options.block = 64;
    options.mode = mode;
    const SlicePlan plan =
        slice_and_dice(patterns[static_cast<std::size_t>(pattern_idx)]
                           .pattern,
                       options);
    plan.validate_partition();
    EXPECT_EQ(plan.coarse_valid_elements() + plan.fine_elements() +
                  plan.special_elements(),
              plan.full->nnz());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresetsAllModes, SlicePartitionTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(SliceMode::kMultigrain,
                                         SliceMode::kCoarseOnly,
                                         SliceMode::kFineOnly)),
    [](const ::testing::TestParamInfo<std::tuple<int, SliceMode>> &info) {
        const auto patterns = fig9_patterns(256, 0.08, 17);
        std::string name =
            patterns[static_cast<std::size_t>(std::get<0>(info.param))]
                .label +
            std::string("_") + to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';
            }
        }
        return name;
    });

// ------------------------------------------------ differential slicing ----
//
// slice_and_dice is checked field for field against a deliberately naive
// slicer that lives only in this file: per-row sort/unique unions of the
// atoms' columns, std::set_difference for overlap invalidation (§3.3) and
// an ordered map per block row for blockification. It shares nothing with
// the library beyond AtomicPattern::append_row_columns, which defines the
// atoms.

CsrLayout
reference_union(const CompoundPattern &p,
                const std::vector<const AtomicPattern *> &atoms,
                const std::vector<index_t> &exclude_rows)
{
    const index_t valid_len = p.effective_valid_len();
    CsrLayout out;
    out.rows = p.seq_len;
    out.cols = p.seq_len;
    out.row_offsets.push_back(0);
    std::vector<index_t> cols;
    for (index_t r = 0; r < p.seq_len; ++r) {
        if (!std::binary_search(exclude_rows.begin(), exclude_rows.end(),
                                r)) {
            cols.clear();
            for (const AtomicPattern *atom : atoms) {
                atom->append_row_columns(p.seq_len, valid_len, r, cols);
            }
            std::sort(cols.begin(), cols.end());
            cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
            if (p.causal) {
                cols.erase(std::upper_bound(cols.begin(), cols.end(), r),
                           cols.end());
            }
            out.col_indices.insert(out.col_indices.end(), cols.begin(),
                                   cols.end());
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

CsrLayout
reference_difference(const CsrLayout &a, const CsrLayout &b)
{
    CsrLayout out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < a.rows; ++r) {
        const auto row = [r](const CsrLayout &l, std::size_t end) {
            return l.col_indices.begin() +
                   l.row_offsets[static_cast<std::size_t>(r) + end];
        };
        std::set_difference(row(a, 0), row(a, 1), row(b, 0), row(b, 1),
                            std::back_inserter(out.col_indices));
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

BsrLayout
reference_blockify(const CsrLayout &csr, index_t block)
{
    BsrLayout out;
    out.rows = csr.rows;
    out.cols = csr.cols;
    out.block = block;
    const std::size_t words =
        static_cast<std::size_t>(out.words_per_block());
    out.row_offsets.push_back(0);
    for (index_t br = 0; br < out.block_rows(); ++br) {
        std::map<index_t, std::vector<std::uint64_t>> strip;
        for (index_t r = br * block; r < (br + 1) * block; ++r) {
            for (index_t i = csr.row_offsets[static_cast<std::size_t>(r)];
                 i < csr.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
                const index_t c =
                    csr.col_indices[static_cast<std::size_t>(i)];
                auto &bits = strip[c / block];
                bits.resize(words, 0);
                const index_t bit = (r - br * block) * block + c % block;
                bits[static_cast<std::size_t>(bit / 64)] |= 1ull
                                                            << (bit % 64);
            }
        }
        for (const auto &[bc, bits] : strip) {
            out.col_indices.push_back(bc);
            out.valid_bits.insert(out.valid_bits.end(), bits.begin(),
                                  bits.end());
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

/// The naive restatement of slice_and_dice: three unions, a difference
/// and a blockify, with the same null-part conventions.
SlicePlan
reference_slice(const CompoundPattern &p, const SliceOptions &options)
{
    SlicePlan plan;
    plan.seq_len = p.seq_len;
    plan.valid_len = p.effective_valid_len();
    plan.block = options.block;
    plan.mode = options.mode;
    std::vector<const AtomicPattern *> all;
    for (const AtomicPattern &atom : p.atoms) {
        all.push_back(&atom);
    }
    plan.full =
        std::make_shared<const CsrLayout>(reference_union(p, all, {}));
    switch (options.mode) {
      case SliceMode::kCoarseOnly:
        plan.coarse = std::make_shared<const BsrLayout>(
            reference_blockify(*plan.full, options.block));
        return plan;
      case SliceMode::kFineOnly:
        plan.fine = plan.full;
        return plan;
      case SliceMode::kDense:
        return plan;
      case SliceMode::kMultigrain:
        break;
    }
    std::vector<const AtomicPattern *> coarse_atoms;
    std::vector<const AtomicPattern *> fine_atoms;
    for (const AtomicPattern &atom : p.atoms) {
        if (atom.is_special() && options.route_global_to_dense) {
            for (const index_t t : atom.tokens) {
                if (t < plan.valid_len) {
                    plan.global_rows.push_back(t);
                }
            }
        } else {
            (atom.is_coarse() ? coarse_atoms : fine_atoms).push_back(&atom);
        }
    }
    std::sort(plan.global_rows.begin(), plan.global_rows.end());
    plan.global_rows.erase(
        std::unique(plan.global_rows.begin(), plan.global_rows.end()),
        plan.global_rows.end());
    const CsrLayout coarse = reference_union(p, coarse_atoms,
                                             plan.global_rows);
    if (coarse.nnz() > 0) {
        plan.coarse = std::make_shared<const BsrLayout>(
            reference_blockify(coarse, options.block));
    }
    const CsrLayout fine = reference_difference(
        reference_union(p, fine_atoms, plan.global_rows), coarse);
    if (fine.nnz() > 0) {
        plan.fine = std::make_shared<const CsrLayout>(fine);
    }
    return plan;
}

::testing::AssertionResult
same_csr(const char *part, const CsrLayout &actual,
         const CsrLayout &expected)
{
    if (actual.rows != expected.rows || actual.cols != expected.cols) {
        return ::testing::AssertionFailure() << part << ": shape differs";
    }
    if (actual.row_offsets != expected.row_offsets) {
        return ::testing::AssertionFailure()
               << part << ": row_offsets differ";
    }
    if (actual.col_indices != expected.col_indices) {
        return ::testing::AssertionFailure()
               << part << ": col_indices differ";
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
same_bsr(const BsrLayout &actual, const BsrLayout &expected)
{
    if (actual.rows != expected.rows || actual.cols != expected.cols ||
        actual.block != expected.block) {
        return ::testing::AssertionFailure() << "coarse: shape differs";
    }
    if (actual.row_offsets != expected.row_offsets) {
        return ::testing::AssertionFailure()
               << "coarse: row_offsets differ";
    }
    if (actual.col_indices != expected.col_indices) {
        return ::testing::AssertionFailure()
               << "coarse: col_indices differ";
    }
    if (actual.valid_bits != expected.valid_bits) {
        return ::testing::AssertionFailure() << "coarse: valid_bits differ";
    }
    return ::testing::AssertionSuccess();
}

/// Slices `p` under `options` and compares every field of the plan with
/// the reference, including which parts are null and that fine-only
/// shares the full layout.
::testing::AssertionResult
matches_reference(const CompoundPattern &p, const SliceOptions &options)
{
    const SlicePlan actual = slice_and_dice(p, options);
    const SlicePlan expected = reference_slice(p, options);
    const auto fail = [&]() {
        return ::testing::AssertionFailure()
               << p.describe() << " block " << options.block << " mode "
               << to_string(options.mode) << " route_global "
               << options.route_global_to_dense << ": ";
    };
    if (actual.seq_len != expected.seq_len ||
        actual.valid_len != expected.valid_len ||
        actual.block != expected.block || actual.mode != expected.mode) {
        return fail() << "plan header differs";
    }
    if (auto r = same_csr("full", *actual.full, *expected.full); !r) {
        return fail() << r.message();
    }
    if ((actual.coarse == nullptr) != (expected.coarse == nullptr)) {
        return fail() << "coarse part presence differs";
    }
    if (expected.coarse) {
        if (auto r = same_bsr(*actual.coarse, *expected.coarse); !r) {
            return fail() << r.message();
        }
    }
    if ((actual.fine == nullptr) != (expected.fine == nullptr)) {
        return fail() << "fine part presence differs";
    }
    if (expected.fine) {
        if (auto r = same_csr("fine", *actual.fine, *expected.fine); !r) {
            return fail() << r.message();
        }
    }
    if ((actual.fine == actual.full) != (expected.fine == expected.full)) {
        return fail() << "fine part sharing with full differs";
    }
    if (actual.global_rows != expected.global_rows) {
        return fail() << "global_rows differ";
    }
    try {
        actual.validate_partition();
    } catch (const Error &e) {
        return fail() << "partition: " << e.what();
    }
    return ::testing::AssertionSuccess();
}

constexpr SliceMode kAllModes[] = {SliceMode::kMultigrain,
                                   SliceMode::kCoarseOnly,
                                   SliceMode::kFineOnly, SliceMode::kDense};

constexpr AtomicKind kAllKinds[] = {
    AtomicKind::kLocal,           AtomicKind::kDilated,
    AtomicKind::kGlobal,          AtomicKind::kSelected,
    AtomicKind::kRandom,          AtomicKind::kClusteredRandom,
    AtomicKind::kBlockedLocal,    AtomicKind::kBlockedRandom};

/// Special-token positions that favour 64-bit word edges.
std::vector<index_t>
random_tokens(Rng &rng, index_t seq, index_t max_count)
{
    std::vector<index_t> tokens;
    const index_t count = rng.next_range(1, max_count);
    for (index_t t = 0; t < count; ++t) {
        if (rng.next_float() < 0.3f) {
            const index_t edge = 64 * rng.next_range(0, seq / 64) +
                                 rng.next_range(-1, 1);
            tokens.push_back(std::clamp<index_t>(edge, 0, seq - 1));
        } else {
            tokens.push_back(rng.next_range(0, seq - 1));
        }
    }
    return tokens;
}

AtomicPattern
random_atom(Rng &rng, index_t seq, AtomicKind kind)
{
    const index_t atom_block = index_t{8} << rng.next_range(0, 3);
    switch (kind) {
      case AtomicKind::kLocal:
        return AtomicPattern::local(
            rng.next_range(0, std::max<index_t>(1, seq / 8)));
      case AtomicKind::kDilated:
        return AtomicPattern::dilated(rng.next_range(0, 4),
                                      rng.next_range(1, 9));
      case AtomicKind::kGlobal:
        return AtomicPattern::global(random_tokens(rng, seq, 6));
      case AtomicKind::kSelected:
        return AtomicPattern::selected(random_tokens(rng, seq, 10));
      case AtomicKind::kRandom:
        return AtomicPattern::random(
            rng.next_range(1, std::max<index_t>(1, seq / 16)),
            rng.next_u64());
      case AtomicKind::kClusteredRandom:
        return AtomicPattern::clustered_random(
            atom_block, rng.next_range(1, 3), rng.next_range(1, 20),
            rng.next_u64());
      case AtomicKind::kBlockedLocal:
        return AtomicPattern::blocked_local(atom_block,
                                            rng.next_range(0, 2));
      case AtomicKind::kBlockedRandom:
        return AtomicPattern::blocked_random(
            atom_block, rng.next_range(1, 3), rng.next_u64());
    }
    return AtomicPattern::local(1);
}

/// 1-4 atoms of random kinds; no global atom when `causal`.
CompoundPattern
random_compound(Rng &rng, index_t seq, bool causal)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.causal = causal;
    const index_t atoms = rng.next_range(1, 4);
    while (static_cast<index_t>(p.atoms.size()) < atoms) {
        const AtomicKind kind = kAllKinds[rng.next_below(8)];
        if (!(causal && kind == AtomicKind::kGlobal)) {
            p.atoms.push_back(random_atom(rng, seq, kind));
        }
    }
    if (rng.next_float() < 0.3f) {
        p.valid_len = rng.next_range(1, seq);
    }
    return p;
}

TEST(SliceTest, MatchesReferenceForEveryAtomKind)
{
    Rng rng(101);
    for (const AtomicKind kind : kAllKinds) {
        for (int trial = 0; trial < 4; ++trial) {
            // Each kind alone, and next to a coarse band and global rows
            // so that overlap invalidation and carving act on it.
            CompoundPattern alone;
            alone.seq_len = 256;
            alone.atoms.push_back(random_atom(rng, 256, kind));
            CompoundPattern mixed = alone;
            mixed.atoms.push_back(AtomicPattern::local(5));
            mixed.atoms.push_back(
                AtomicPattern::global(random_tokens(rng, 256, 4)));
            for (const SliceMode mode : kAllModes) {
                EXPECT_TRUE(matches_reference(
                    alone, {.block = 16, .mode = mode}));
                EXPECT_TRUE(matches_reference(
                    mixed, {.block = 16, .mode = mode}));
            }
        }
    }
}

TEST(SliceTest, MatchesReferenceOnCausalPatterns)
{
    Rng rng(202);
    std::vector<CompoundPattern> patterns = {
        preset_sparse_transformer_strided(256, 16),
        preset_sparse_transformer_fixed(256, 32, 4)};
    for (int trial = 0; trial < 24; ++trial) {
        patterns.push_back(random_compound(rng, 192, true));
    }
    for (const CompoundPattern &p : patterns) {
        for (const SliceMode mode : kAllModes) {
            EXPECT_TRUE(matches_reference(p, {.block = 32, .mode = mode}));
        }
    }
}

TEST(SliceTest, MatchesReferenceWithPaddedRows)
{
    Rng rng(303);
    for (const index_t valid_len : {1, 63, 64, 65, 127, 128, 129, 200}) {
        for (int trial = 0; trial < 3; ++trial) {
            CompoundPattern p = random_compound(rng, 256, trial == 2);
            p.valid_len = valid_len;
            for (const SliceMode mode : kAllModes) {
                EXPECT_TRUE(
                    matches_reference(p, {.block = 16, .mode = mode}));
            }
        }
    }
}

TEST(SliceTest, MatchesReferenceAcrossBlockSizesAndWordEdges)
{
    Rng rng(404);
    for (const index_t block : {8, 16, 32, 64}) {
        for (const index_t blocks : {1, 3, 8, 9, 17, 64}) {
            const index_t seq = block * blocks;
            if (seq > 1024 && block < 64) {
                continue;  // 64 blocks of 64 cover the long rows.
            }
            CompoundPattern p = random_compound(rng, seq, false);
            p.atoms.push_back(AtomicPattern::local(
                rng.next_range(0, std::max<index_t>(1, seq / 16))));
            for (const SliceMode mode : kAllModes) {
                EXPECT_TRUE(
                    matches_reference(p, {.block = block, .mode = mode}));
            }
        }
    }
}

TEST(SliceTest, MatchesReferenceWithGlobalRoutingOff)
{
    Rng rng(505);
    for (int trial = 0; trial < 24; ++trial) {
        CompoundPattern p = random_compound(rng, 256, false);
        p.atoms.push_back(AtomicPattern::global(random_tokens(rng, 256, 6)));
        for (const bool route : {true, false}) {
            EXPECT_TRUE(matches_reference(
                p, {.block = 32,
                    .mode = SliceMode::kMultigrain,
                    .route_global_to_dense = route}));
        }
    }
}

TEST(SliceTest, MatchesReferenceOnRandomCompounds)
{
    Rng rng(606);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t block = index_t{8} << rng.next_range(0, 3);
        const index_t seq = block * rng.next_range(1, 512 / block);
        const CompoundPattern p =
            random_compound(rng, seq, rng.next_float() < 0.25f);
        for (const SliceMode mode : kAllModes) {
            EXPECT_TRUE(matches_reference(p, {.block = block, .mode = mode}));
        }
    }
}

TEST(SliceTest, MatchesReferenceOnModelSamples)
{
    Rng rng(707);
    for (const char *name : {"longformer", "qds", "bigbird",
                             "poolingformer"}) {
        const ModelConfig config = model_config_by_name(name);
        const CompoundPattern p =
            build_model_pattern(config, sample_for_model(rng, config));
        for (const SliceMode mode : kAllModes) {
            EXPECT_TRUE(matches_reference(
                p, {.block = config.block, .mode = mode}))
                << name;
        }
        EXPECT_TRUE(matches_reference(p, {.block = config.block,
                                          .route_global_to_dense = false}))
            << name;
    }
}

TEST(SliceTest, FullLayoutMatchesReferenceUnion)
{
    // build_full_layout has no block constraint: any seq_len works.
    Rng rng(808);
    for (int trial = 0; trial < 32; ++trial) {
        const CompoundPattern p = random_compound(
            rng, rng.next_range(1, 300), rng.next_float() < 0.25f);
        std::vector<const AtomicPattern *> all;
        for (const AtomicPattern &atom : p.atoms) {
            all.push_back(&atom);
        }
        EXPECT_TRUE(same_csr("full", build_full_layout(p),
                             reference_union(p, all, {})))
            << p.describe();
    }
}

TEST(SliceTest, BsrFromCsrMatchesMapReference)
{
    Rng rng(909);
    for (const index_t block : {4, 8, 16, 24, 64, 128}) {
        for (int trial = 0; trial < 4; ++trial) {
            const index_t rows = block * rng.next_range(1, 4);
            const index_t cols = block * rng.next_range(1, 4);
            MaskMatrix mask(rows, cols, 0);
            const float density = rng.next_float(0.0f, 0.3f);
            for (index_t r = 0; r < rows; ++r) {
                for (index_t c = 0; c < cols; ++c) {
                    mask.at(r, c) = rng.next_float() < density ? 1 : 0;
                }
            }
            const CsrLayout csr = csr_from_mask(mask);
            EXPECT_TRUE(same_bsr(bsr_from_csr(csr, block),
                                 reference_blockify(csr, block)))
                << rows << "x" << cols << " block " << block;
        }
    }
}

}  // namespace
}  // namespace multigrain
