#include "partition/edge/split_merge.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <fstream>
#include <limits>

#include "util/dense_bitset.h"
#include "util/string_util.h"

namespace loom {
namespace partition {
namespace edge {

bool LoadEdgeAssignments(const std::string& path,
                         std::vector<EdgeAssignmentRecord>* records,
                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open edge assignment file: " + path;
    return false;
  }
  records->clear();
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::Split(line, '\t');
    EdgeAssignmentRecord rec;
    if (fields.size() != 3 || !util::ParseDecimal(fields[0], &rec.u) ||
        !util::ParseDecimal(fields[1], &rec.v) ||
        !util::ParseDecimal(fields[2], &rec.partition)) {
      *error = path + ":" + std::to_string(line_no) +
               ": expected \"<u>\\t<v>\\t<partition>\" (the --edge-out "
               "format), got \"" +
               line + "\"";
      return false;
    }
    records->push_back(rec);
  }
  if (records->empty()) {
    *error = "edge assignment file is empty: " + path;
    return false;
  }
  return true;
}

EdgeQuality EvaluateMerged(const std::vector<EdgeAssignmentRecord>& records,
                           const std::vector<graph::PartitionId>& atom_to_part,
                           uint32_t k_out) {
  EdgeQuality q;
  if (records.empty() || k_out == 0) return q;
  const uint32_t words = (k_out + 63) / 64;
  std::vector<uint64_t> replicas;  // slots x words, grown on demand
  std::vector<uint64_t> loads(k_out, 0);
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  uint64_t replica_total = 0;
  uint64_t vertices_seen = 0;

  auto add_replica = [&](graph::VertexId v, graph::PartitionId p) {
    const size_t need = (static_cast<size_t>(v) + 1) * words;
    if (replicas.size() < need) replicas.resize(need, 0);
    const size_t base = static_cast<size_t>(v) * words;
    uint64_t& word = replicas[base + p / 64];
    const uint64_t bit = 1ULL << (p % 64);
    if ((word & bit) != 0) return;
    bool had_any = false;
    for (uint32_t w = 0; w < words && !had_any; ++w) {
      had_any = replicas[base + w] != 0;
    }
    word |= bit;
    ++replica_total;
    if (!had_any) ++vertices_seen;
  };

  for (const EdgeAssignmentRecord& rec : records) {
    graph::PartitionId p = 0;
    if (rec.partition < atom_to_part.size()) {
      p = atom_to_part[rec.partition];
    } else {
      assert(false && "record partition outside the atom mapping");
    }
    if (p >= k_out) {
      assert(false && "atom mapped outside [0, k_out)");
      p = 0;
    }
    add_replica(rec.u, p);
    if (rec.v != rec.u) add_replica(rec.v, p);
    ++loads[p];
    hash = (hash ^ p) * 0x100000001b3ULL;  // same FNV-1a as the live backends
  }

  const uint64_t max_load = *std::max_element(loads.begin(), loads.end());
  q.replication_factor =
      vertices_seen > 0 ? static_cast<double>(replica_total) / vertices_seen
                        : 0.0;
  q.edge_balance = static_cast<double>(max_load) * k_out / records.size();
  q.edge_assignment_hash = hash;
  return q;
}

std::vector<graph::PartitionId> NaiveModuloMerge(uint32_t input_parts,
                                                 uint32_t target_k) {
  std::vector<graph::PartitionId> map(input_parts, 0);
  for (uint32_t i = 0; i < input_parts; ++i) map[i] = i % target_k;
  return map;
}

bool SplitMerge(const std::vector<EdgeAssignmentRecord>& records,
                const SplitMergeOptions& options, SplitMergeResult* result,
                std::string* error) {
  if (records.empty()) {
    *error = "split-merge needs a non-empty edge assignment";
    return false;
  }
  uint32_t k_in = 0;
  for (const EdgeAssignmentRecord& rec : records) {
    k_in = std::max(k_in, rec.partition + 1);
  }
  if (options.target_k == 0 || options.target_k > k_in) {
    *error = "--rebalance-to=" + std::to_string(options.target_k) +
             " must be in [1, " + std::to_string(k_in) +
             "] (the input assignment has " + std::to_string(k_in) +
             " parts; split-merge only merges, it never splits)";
    return false;
  }

  // Per-atom load and vertex set. Atoms are the k' input parts.
  std::vector<uint64_t> load(k_in, 0);
  std::vector<util::DenseBitset> verts(k_in);
  for (const EdgeAssignmentRecord& rec : records) {
    ++load[rec.partition];
    verts[rec.partition].Set(rec.u);
    verts[rec.partition].Set(rec.v);
  }

  const double cap = options.balance_cap *
                     static_cast<double>(records.size()) / options.target_k;

  // Greedy pairwise merge. alive[] tracks current representatives; parent[]
  // resolves every original atom to its representative at the end. Pair
  // choice is pinned: max vertex overlap, then smaller combined load, then
  // lower (a, b) — same records + options always yield the same mapping.
  std::vector<bool> alive(k_in, true);
  std::vector<uint32_t> parent(k_in);
  for (uint32_t i = 0; i < k_in; ++i) parent[i] = i;
  uint32_t remaining = k_in;

  while (remaining > options.target_k) {
    uint32_t best_a = k_in, best_b = k_in;
    uint64_t best_overlap = 0;
    uint64_t best_load = std::numeric_limits<uint64_t>::max();
    bool found = false;
    for (uint32_t a = 0; a < k_in; ++a) {
      if (!alive[a]) continue;
      for (uint32_t b = a + 1; b < k_in; ++b) {
        if (!alive[b]) continue;
        const uint64_t combined = load[a] + load[b];
        if (static_cast<double>(combined) > cap) continue;  // violates cap
        const uint64_t overlap = verts[a].CountAnd(verts[b]);
        if (!found || overlap > best_overlap ||
            (overlap == best_overlap && combined < best_load)) {
          best_a = a;
          best_b = b;
          best_overlap = overlap;
          best_load = combined;
          found = true;
        }
      }
    }
    if (!found) {
      *error = "no pair of parts can merge without exceeding the balance cap "
               "(cap=" +
               std::to_string(options.balance_cap) + " allows at most " +
               std::to_string(static_cast<uint64_t>(cap)) +
               " edges/part at target_k=" + std::to_string(options.target_k) +
               "); raise --balance-cap or lower --rebalance-to less "
               "aggressively";
      return false;
    }
    // Fold b into a (a < b by construction).
    load[best_a] += load[best_b];
    verts[best_a].OrWith(verts[best_b]);
    verts[best_b] = util::DenseBitset();  // release the absorbed set
    alive[best_b] = false;
    parent[best_b] = best_a;
    --remaining;
  }

  // Renumber surviving atoms by ascending original id -> dense [0, target_k).
  std::vector<graph::PartitionId> rep_part(k_in, 0);
  graph::PartitionId next = 0;
  for (uint32_t i = 0; i < k_in; ++i) {
    if (alive[i]) rep_part[i] = next++;
  }
  assert(next == options.target_k);
  result->input_parts = k_in;
  result->atom_to_part.assign(k_in, 0);
  for (uint32_t i = 0; i < k_in; ++i) {
    uint32_t root = i;
    while (parent[root] != root) root = parent[root];
    result->atom_to_part[i] = rep_part[root];
  }

  // Identity mapping over k_in parts == the input file's own triple.
  std::vector<graph::PartitionId> identity(k_in);
  for (uint32_t i = 0; i < k_in; ++i) identity[i] = i;
  result->input_quality = EvaluateMerged(records, identity, k_in);
  result->quality =
      EvaluateMerged(records, result->atom_to_part, options.target_k);
  return true;
}

}  // namespace edge
}  // namespace partition
}  // namespace loom
