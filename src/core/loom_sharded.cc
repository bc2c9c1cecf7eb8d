#include "core/loom_sharded.h"

#include <algorithm>
#include <cassert>

#include "core/loom_checkpoint.h"
#include "partition/ldg_partitioner.h"

namespace loom {
namespace core {

LoomShardedPartitioner::LoomShardedPartitioner(
    const LoomShardedOptions& options, const query::Workload& workload,
    size_t num_labels)
    : options_(options),
      ctor_num_labels_(num_labels),
      partitioning_(options.loom.base.k, options.loom.base.expected_vertices,
                    options.loom.base.max_imbalance),
      seen_(std::max<uint32_t>(options.shards, 1),
            options.loom.base.adj_page_entries),
      hub_(options.loom.base.k, options.loom.base.hub_degree_threshold),
      window_(options.loom.window_size) {
  options_.shards = seen_.num_shards();
  label_values_ = std::make_unique<signature::LabelValues>(
      num_labels, options_.loom.prime, options_.loom.signature_seed);
  calc_ = std::make_unique<signature::SignatureCalculator>(label_values_.get());
  trie_ = std::make_unique<tpstry::Tpstry>(calc_.get(),
                                           options_.loom.support_threshold);
  query::Workload normalised = workload;
  normalised.Normalize();
  for (const query::Query& q : normalised.queries()) {
    trie_->AddQuery(q.pattern, q.frequency);
  }
  matcher_ = std::make_unique<motif::MotifMatcher>(trie_.get(), calc_.get(),
                                                   options_.loom.matcher);
  allocator_ = std::make_unique<EqualOpportunism>(
      trie_.get(), &seen_, options_.loom.equal_opportunism, &hub_);
  const std::vector<bool> mask = trie_->MotifLabelMask(num_labels);
  motif_label_.assign(mask.begin(), mask.end());
  match_list_.ReserveEdgeSpan(options_.loom.window_size + 1);
  match_list_.ReserveVertices(options_.loom.base.expected_vertices);

  const size_t per_shard =
      options_.loom.base.expected_vertices / options_.shards + 1;
  shard_matchers_.reserve(options_.shards);
  const uint64_t entries_per_shard =
      2 * options_.loom.base.expected_edges / options_.shards + 1;
  for (uint32_t s = 0; s < options_.shards; ++s) {
    seen_.part(s).Reserve(per_shard);
    seen_.part(s).ReserveEntries(entries_per_shard);
    shard_matchers_.push_back(std::make_unique<motif::MotifMatcher>(
        trie_.get(), calc_.get(), options_.loom.matcher));
  }
  // Workers last: they may touch any of the members above.
  team_ = std::make_unique<ShardTeam>(
      options_.shards, options_.shard_queue_depth, options_.slice_edges,
      [this](uint32_t shard, const ShardTeam::Slice& slice) {
        ProcessSlice(shard, slice);
      });
}

void LoomShardedPartitioner::ProcessSlice(uint32_t shard,
                                          const ShardTeam::Slice& slice) {
  ShardGraphPart& part = seen_.part(shard);
  motif::MotifMatcher& admission = *shard_matchers_[shard];
  for (size_t j = 0; j < slice.edges.size(); ++j) {
    const stream::StreamEdge& e = slice.edges[j];
    if (seen_.Owner(e.u) == shard) {
      part.TouchVertex(seen_.Local(e.u), e.label_u);
      part.Append(seen_.Local(e.u), e.v);
      // u's owner stamps the admission bit (cell owned by this shard).
      admit_scratch_[slice.base + j] =
          admission.SingleEdgeMotif(e) != nullptr;
    }
    // For a self-loop the u-branch above already wrote its single canonical
    // entry (matching DynamicGraph::AddEdge); a second append here would
    // double the hub's self-degree on this backend only.
    if (e.u != e.v && seen_.Owner(e.v) == shard) {
      part.TouchVertex(seen_.Local(e.v), e.label_v);
      part.Append(seen_.Local(e.v), e.u);
    }
  }
}

void LoomShardedPartitioner::Ingest(const stream::StreamEdge& e) {
  IngestBatch(std::span<const stream::StreamEdge>(&e, 1));
}

void LoomShardedPartitioner::EnsureLabelSpace(graph::LabelId max_label) {
  if (max_label < calc_->num_labels()) return;
  label_values_->EnsureLabels(static_cast<size_t>(max_label) + 1);
  // Every matcher (sequencer's + the shards' admission memos) is sized by
  // the label count; the workers are quiescent here, so this is race-free.
  matcher_->InvalidateMotifCache();
  for (auto& m : shard_matchers_) m->InvalidateMotifCache();
  const std::vector<bool> mask =
      trie_->MotifLabelMask(label_values_->num_labels());
  motif_label_.assign(mask.begin(), mask.end());
}

void LoomShardedPartitioner::IngestBatch(
    std::span<const stream::StreamEdge> batch) {
  if (batch.empty()) return;
  // Open-alphabet growth must land before fan-out: workers probe their
  // admission memos against the label space.
  graph::LabelId max_label = 0;
  for (const stream::StreamEdge& e : batch) {
    max_label = std::max({max_label, e.label_u, e.label_v});
  }
  EnsureLabelSpace(max_label);
  // Size the admission bitmap before fan-out (workers write its cells).
  admit_scratch_.assign(batch.size(), 0);
  if (batch.size() == 1) {
    // Per-edge ingest: a cross-thread round trip per shard buys zero
    // parallel work for a single edge. Run every shard's (pure,
    // shard-local) slice inline — the workers are quiescent outside
    // Dispatch, so this is race-free and bit-identical to the fan-out.
    const ShardTeam::Slice slice{batch, 0};
    for (uint32_t s = 0; s < options_.shards; ++s) ProcessSlice(s, slice);
  } else {
    team_->Dispatch(batch);
  }
  // Barrier passed: all shards quiescent, every adjacency entry and
  // admission bit of this batch is in place. Replay decisions in stream
  // order; the visibility cursors keep reads prefix-exact per edge.
  for (size_t i = 0; i < batch.size(); ++i) {
    const stream::StreamEdge& e = batch[i];
    seen_.Advance(e.u, e.v);
    // Hub rows track the VISIBLE adjacency, so the hook rides the cursor
    // bump (not the workers' appends) — mirroring AddEdge-then-hook in the
    // serial backends.
    hub_.OnEdgeVisible(e.u, e.v, seen_, partitioning_);
    IngestSequenced(e, admit_scratch_[i] != 0);
  }
}

bool LoomShardedPartitioner::IsDeferred(graph::VertexId v,
                                        graph::LabelId label) {
  if (partitioning_.IsAssigned(v)) return false;
  if (label < motif_label_.size() && motif_label_[label] != 0) return true;
  return match_list_.HasLiveAt(v);
}

void LoomShardedPartitioner::AssignVertex(graph::VertexId v,
                                          graph::PartitionId p) {
  // First placement only (mirrors LoomPartitioner::AssignVertex): cluster
  // assignment revisits placed vertices, and the hub hook must fire once.
  if (partitioning_.IsAssigned(v)) return;
  const graph::PartitionId actual = AssignAndNotify(&partitioning_, v, p);
  hub_.OnAssign(v, actual, seen_);
}

void LoomShardedPartitioner::AssignImmediately(const stream::StreamEdge& e) {
  const bool place_u =
      !partitioning_.IsAssigned(e.u) && !IsDeferred(e.u, e.label_u);
  const bool place_v =
      !partitioning_.IsAssigned(e.v) && !IsDeferred(e.v, e.label_v);
  if (!place_u && !place_v) return;
  const graph::PartitionId p = partition::LdgHeuristic::Choose(
      e, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
  if (place_u) AssignVertex(e.u, p);
  if (place_v) AssignVertex(e.v, p);
}

void LoomShardedPartitioner::IngestSequenced(const stream::StreamEdge& e,
                                             bool admitted) {
  ++stats_.edges_ingested;

  if (!admitted) {
    ++stats_.edges_bypassed;
    AssignImmediately(e);
    return;
  }

  window_.Push(e);
  matcher_->OnEdgeAdded(e, window_, &match_list_);

  while (window_.OverCapacity()) EvictOldest();

  if (++edges_since_compact_ >= options_.loom.compact_interval) {
    match_list_.Compact();
    edges_since_compact_ = 0;
  }
}

void LoomShardedPartitioner::FillProgress(
    engine::ProgressEvent* progress) const {
  progress->edges_ingested = stats_.edges_ingested;
  progress->edges_bypassed = stats_.edges_bypassed;
  progress->window_population = window_.size();
  const ShardSequencerStats& seq = team_->stats();
  progress->shards = options_.shards;
  progress->shard_slices = seq.slices_posted;
  progress->shard_queue_stalls = seq.queue_full_stalls;
}

void LoomShardedPartitioner::FillFinalStats(
    engine::FinalStatsEvent* stats) const {
  // Same keys and (bit-identical) values as "loom" — the sequencer runs
  // the identical decision pipeline over its own pool/matcher, and the
  // shared helper makes key drift impossible; queue/stall numbers are
  // timing-dependent and deliberately stay out (they ride ProgressEvent).
  FillLoomFinalStats(match_list_.pool(), matcher_->stats(), stats);
}

void LoomShardedPartitioner::EvictOldest() {
  std::optional<stream::StreamEdge> evictee = window_.PopOldest();
  if (!evictee.has_value()) return;
  ++stats_.edges_via_window;

  me_scratch_.clear();
  match_list_.CollectLiveWithEdge(evictee->id, &me_scratch_);
  if (observer() != nullptr) {
    observer()->OnEviction({evictee->id, me_scratch_.size()});
  }
  if (me_scratch_.empty()) {
    AssignImmediately(*evictee);
    match_list_.RemoveMatchesWithEdge(evictee->id);
    return;
  }

  AllocationDecision decision =
      allocator_->DecideBids(match_list_, me_scratch_, partitioning_);
  const bool used_fallback = decision.partition == graph::kNoPartition;
  if (used_fallback) {
    const graph::PartitionId fallback = partition::LdgHeuristic::Choose(
        *evictee, seen_, partitioning_, /*had_signal=*/nullptr, &hub_);
    decision.partition = partitioning_.AtCapacity(fallback)
                             ? partitioning_.LeastLoaded()
                             : fallback;
    decision.take = me_scratch_.size();
  }
  ++stats_.clusters_allocated;

  std::vector<graph::EdgeId>& to_assign = assign_scratch_;
  to_assign.clear();
  for (size_t i = 0; i < decision.take; ++i) {
    const motif::Match& m = match_list_.match(me_scratch_[i]);
    to_assign.insert(to_assign.end(), m.edges.begin(), m.edges.end());
  }
  std::sort(to_assign.begin(), to_assign.end());
  to_assign.erase(std::unique(to_assign.begin(), to_assign.end()),
                  to_assign.end());
  assert(!to_assign.empty());

  uint64_t edges_assigned = 0;
  for (graph::EdgeId eid : to_assign) {
    const stream::StreamEdge* se =
        eid == evictee->id ? &*evictee : window_.Find(eid);
    if (se == nullptr) continue;  // already left the window
    AssignVertex(se->u, decision.partition);
    AssignVertex(se->v, decision.partition);
    window_.Remove(eid);
    ++edges_assigned;
  }
  stats_.cluster_edges_assigned += edges_assigned;
  for (graph::EdgeId eid : to_assign) match_list_.RemoveMatchesWithEdge(eid);

  if (observer() != nullptr) {
    observer()->OnClusterDecision({decision.partition, me_scratch_.size(),
                                   decision.take, edges_assigned,
                                   used_fallback});
  }
}

bool LoomShardedPartitioner::SaveState(io::CheckpointWriter* w,
                                       std::string* error) const {
  (void)error;
  auto* self = const_cast<LoomShardedPartitioner*>(this);
  LoomCoreState st;
  st.options = &options_.loom;
  st.ctor_num_labels = ctor_num_labels_;
  st.label_values = self->label_values_.get();
  st.trie = trie_.get();
  st.partitioning = &self->partitioning_;
  st.window = &self->window_;
  st.match_list = &self->match_list_;
  st.matcher = self->matcher_.get();
  st.stats = &self->stats_;
  st.edges_since_compact = &self->edges_since_compact_;
  SaveLoomCore(w, st);
  seen_.SaveTo(w);
  return true;
}

bool LoomShardedPartitioner::RestoreState(io::CheckpointReader* r,
                                          std::string* error) {
  (void)error;
  LoomCoreState st;
  st.options = &options_.loom;
  st.ctor_num_labels = ctor_num_labels_;
  st.label_values = label_values_.get();
  st.trie = trie_.get();
  st.partitioning = &partitioning_;
  st.window = &window_;
  st.match_list = &match_list_;
  st.matcher = matcher_.get();
  st.stats = &stats_;
  st.edges_since_compact = &edges_since_compact_;
  const size_t grown = RestoreLoomCore(r, st);
  seen_.LoadFrom(r);
  // Derived state — re-built over the restored visible adjacency.
  hub_.Rebuild(seen_, seen_.NumSlots(), partitioning_);
  if (grown != ctor_num_labels_) {
    matcher_->InvalidateMotifCache();
    for (auto& m : shard_matchers_) m->InvalidateMotifCache();
    const std::vector<bool> mask = trie_->MotifLabelMask(grown);
    motif_label_.assign(mask.begin(), mask.end());
  }
  return true;
}

void LoomShardedPartitioner::UpdateWorkload(const query::Workload& workload,
                                            double decay) {
  assert(decay >= 0.0 && decay < 1.0);
  if (decay > 0.0) {
    trie_->DecaySupports(decay);
  } else {
    trie_->DecaySupports(1e-12);
  }
  query::Workload normalised = workload;
  normalised.Normalize();
  const double new_mass = 1.0 - decay;
  for (const query::Query& q : normalised.queries()) {
    trie_->AddQuery(q.pattern, q.frequency * new_mass);
  }
  const std::vector<bool> mask = trie_->MotifLabelMask(motif_label_.size());
  motif_label_.assign(mask.begin(), mask.end());
  matcher_->InvalidateMotifCache();
  // The shards' admission memos cache the same motif statuses; they are
  // quiescent between dispatches, so invalidation here is race-free.
  for (auto& m : shard_matchers_) m->InvalidateMotifCache();
}

void LoomShardedPartitioner::Finalize() {
  while (!window_.empty()) EvictOldest();
  match_list_.Compact();
  for (graph::VertexId v = 0; v < seen_.NumSlots(); ++v) {
    if (!seen_.Known(v) || partitioning_.IsAssigned(v)) continue;
    AssignVertex(v, partition::LdgHeuristic::ChooseForVertex(
                        v, seen_, partitioning_, &hub_));
  }
}

}  // namespace core
}  // namespace loom
