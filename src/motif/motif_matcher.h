// Streaming motif matching (Sec. 3, Alg. 2).
//
// For each edge admitted to the window the matcher discovers every new
// motif-matching sub-graph the edge creates:
//   1. the single-edge match itself,
//   2. extensions: existing matches at either endpoint grown by the new edge
//      (accepted when the factor-delta corresponds to a motif child in the
//      TPSTry++), and
//   3. joins: pairs of live matches at the two endpoints, at least one of
//      them containing the new edge, merged by recursively absorbing the
//      smaller match's edges into the larger (Alg. 2 lines 11-18). Skipped
//      outright while no motif has more than 2 edges: every join is then
//      a duplicate of an extension or a match without the new edge.
// Matching is purely signature-based: isomorphic sub-graphs always match
// (no false negatives); rare non-isomorphic collisions are tolerated, as the
// paper argues, because a false positive merely co-locates a sub-graph that
// did not need it.
//
// Hot-path design: matches are pooled records addressed by 32-bit handles
// (match_pool.h); endpoint degrees are tracked inside each record, so
// factor deltas never rescan a match's edges against the window; the
// admission test is memoised per label pair (the trie/signature machinery
// runs once per distinct pair, not once per edge); and all per-edge
// working sets live in reusable scratch buffers — steady-state matching
// performs no heap allocation beyond growth of committed match records.

#ifndef LOOM_MOTIF_MOTIF_MATCHER_H_
#define LOOM_MOTIF_MOTIF_MATCHER_H_

#include <cstdint>
#include <vector>

#include "motif/match_list.h"
#include "util/flat_map64.h"
#include "signature/signature_calculator.h"
#include "stream/sliding_window.h"
#include "stream/stream_edge.h"
#include "tpstry/tpstry.h"

namespace loom {
namespace motif {

/// Tunables bounding worst-case work per edge.
struct MatcherConfig {
  /// Cap on live matches considered per endpoint: extension tries the
  /// first 2 x cap distinct live matches (u's posting order first, then
  /// v's), joins pair the first cap live matches at each endpoint (only
  /// pairs where one side contains the new edge).
  /// Collection stops at the cap, so per-edge work at a hub is O(cap).
  /// Generous by default; prevents pathological quadratic blowups on hub
  /// vertices in adversarial streams.
  size_t max_matches_per_vertex = 64;
};

/// Running counters for reporting and tests.
struct MatcherStats {
  uint64_t edges_admitted = 0;
  uint64_t single_edge_matches = 0;
  uint64_t extension_matches = 0;
  uint64_t join_matches = 0;
  uint64_t join_attempts = 0;
};

class MotifMatcher {
 public:
  /// `trie` and `calc` must outlive the matcher.
  MotifMatcher(const tpstry::Tpstry* trie,
               const signature::SignatureCalculator* calc,
               MatcherConfig config = {});

  /// The admission test (Sec. 3): the single-edge motif `e` matches, or
  /// nullptr if none — in which case `e` can never participate in any motif
  /// match and should be assigned immediately without entering the window.
  /// Memoised per (label_u, label_v); call InvalidateMotifCache after the
  /// trie's supports change.
  const tpstry::TpsNode* SingleEdgeMotif(const stream::StreamEdge& e) const;

  /// Drops the memoised admission table and re-sizes it to the calculator's
  /// CURRENT label count. Must be called whenever the trie's motif set may
  /// have changed (workload drift / threshold updates) or the label alphabet
  /// grew (open-alphabet streams; see LabelValues::EnsureLabels).
  void InvalidateMotifCache();

  /// Labels this matcher's admission memo currently covers.
  size_t num_labels() const { return admission_side_; }

  /// Overwrites the running counters (checkpoint restore only; the memo
  /// tables are pure caches and rebuild themselves, but the counters feed
  /// FinalStatsEvent and must survive).
  void RestoreStats(const MatcherStats& stats) { stats_ = stats; }

  /// Processes an edge that has just been pushed into `window` (it must
  /// match a single-edge motif). Registers every newly formed match in `ml`.
  void OnEdgeAdded(const stream::StreamEdge& e,
                   const stream::SlidingWindow& window, MatchList* ml);

  const MatcherStats& stats() const { return stats_; }

 private:
  /// Attempts to extend match `mh` by edge `e`; on success builds the grown
  /// match and registers it. Returns the new handle or kNullMatch.
  MatchHandle TryExtend(MatchHandle mh, const stream::StreamEdge& e,
                        MatchList* ml);

  /// Attempts to absorb all of `smaller`'s edges into `base` (Alg. 2 lines
  /// 11-18), registering the joined match on success.
  void TryJoin(MatchHandle base, MatchHandle smaller,
               const stream::SlidingWindow& window, MatchList* ml);

  /// Recursive work-horse of TryJoin: grows the candidate in `cand_` (node
  /// `node_id`) by any absorbable edge from `remaining`; succeeds when
  /// `remaining` empties.
  bool JoinRecurse(uint32_t node_id, std::vector<graph::EdgeId>& remaining,
                   const stream::SlidingWindow& window, MatchList* ml);

  const tpstry::Tpstry* trie_;
  const signature::SignatureCalculator* calc_;
  MatcherConfig config_;
  MatcherStats stats_;

  /// Admission memo: label-pair -> single-edge motif node (nullable), laid
  /// out as a dense num_labels x num_labels table with a known-bit per cell.
  mutable std::vector<const tpstry::TpsNode*> admission_;
  mutable std::vector<uint8_t> admission_known_;
  size_t admission_side_ = 0;

  /// Motif-child memo: (node, canonical factor delta) -> child (nullable).
  /// FindMotifChild runs several multiset comparisons plus a support check
  /// per child; the matcher asks it millions of times for a handful of
  /// distinct (node, delta) pairs. Keys pack the node id and the three
  /// sorted delta factors into 64 bits; inputs that don't fit (prime or trie
  /// beyond 16 bits — never the paper's configurations) bypass the memo.
  const tpstry::TpsNode* FindMotifChildMemo(uint32_t node_id);
  void RefreshExtendability();
  util::FlatMap64<const tpstry::TpsNode*> child_memo_;

  /// Cached trie.MaxMotifEdges() (refreshed with the motif caches): any
  /// extension or join whose result would exceed it can never be a motif
  /// child chain, so those attempts are pruned before touching signatures.
  /// At 2 or less it also gates the join step off (see OnEdgeAdded).
  uint32_t max_motif_edges_ = 0;

  /// Per-trie-node flag: does the node have ANY motif child? Most live
  /// matches sit at leaf/maximal motifs, where every extend/join attempt is
  /// doomed — this skips them before computing factor deltas.
  std::vector<uint8_t> node_extendable_;

  // Reusable per-edge scratch (see class comment).
  std::vector<MatchHandle> snap_u_;
  std::vector<MatchHandle> snap_v_;
  std::vector<MatchHandle> snap_sorted_;
  std::vector<size_t> snap_u_sizes_;  // edge counts, resolved once per snap
  std::vector<size_t> snap_v_sizes_;
  std::vector<MatchHandle> own_;  // matches of the new edge (Steps 0-1)
  std::vector<uint8_t> own_u_;    // snap_u_[i] is one of own_
  std::vector<uint8_t> own_v_;
  signature::FactorDelta delta_;
  Match cand_;  // join candidate accumulator
  std::vector<graph::EdgeId> remaining_;
};

}  // namespace motif
}  // namespace loom

#endif  // LOOM_MOTIF_MOTIF_MATCHER_H_
