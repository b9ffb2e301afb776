// Seeded corpus and request traffic for the xpv serving benchmark.
//
// A Traffic value is a pure function of (workload, seed): the documents
// (as generator recipes, so a removed document can be regenerated
// bit-identically for re-insertion), the distinct query texts, and one
// pass of requests. The benchmark replays the pass cyclically for the
// measured time; every pass ends with every document live again, so pass
// k + 1 sees the same corpus, and must produce the same answers, as pass k.
#ifndef XPVBENCH_TRAFFIC_H_
#define XPVBENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/document_store.h"
#include "engine/planner.h"
#include "tree/tree.h"

namespace xpvbench {

enum class Workload { kServeSmall, kRelationFull, kNaryStream, kCorpusSpill };

/// Parses a workload name ("serve_small", ...); false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Document families; queries are written against one family's labels.
enum class Family { kBibliography, kRestaurant, kRandom, kPath, kStar };
const char* FamilyName(Family f);

/// How to (re)build one document.
struct DocRecipe {
  Family family = Family::kRandom;
  std::size_t target_nodes = 0;
  std::uint64_t seed = 0;
};

/// Builds the tree a recipe describes; same recipe, same tree.
xpv::Tree BuildDoc(const DocRecipe& recipe);

struct Query {
  std::string text;
  Family family = Family::kRandom;
  /// Index of the template (or generated base query) this text is a
  /// syntactic variant of; variants of one base share its answers.
  std::size_t base = 0;
  /// True when the query has free variables (served by the n-ary engine).
  bool nary = false;
};

struct JobSpec {
  std::uint32_t slot = 0;   // document slot
  std::uint32_t query = 0;  // index into Traffic::queries
  xpv::engine::ResultShape shape = xpv::engine::ResultShape::kFromRootSet;
};

struct Request {
  enum class Kind { kBatch, kStream, kRemove, kInsert };
  Kind kind = Kind::kBatch;
  /// kBatch: the batch's jobs. kStream: one job, whose shape is ignored
  /// (the stream reads the first page of answers). kRemove / kInsert: one
  /// entry naming the slot.
  std::vector<JobSpec> jobs;
};

/// Store/service configuration fixed per workload.
struct WorkloadConfig {
  xpv::engine::DocumentStoreOptions store;
  /// The percentiles reported as req_tail_ms and first_page_tail_ms,
  /// chosen so that at least ten samples lie beyond them in every time
  /// slice at the request counts this workload reaches in a 20 s run.
  double req_tail_percentile = 99.0;
  double page_tail_percentile = 99.0;
  /// The timed loop is cut into this many equal time slices; each
  /// end-to-end figure is the median of its per-slice values, so a stall
  /// on the host moves one slice, not the result. Workloads whose
  /// requests take tens of milliseconds use one slice.
  std::size_t slices = 1;
  /// Requests run single-threaded after set-up and before the timed loop,
  /// which warm the caches; peak RSS is read after them. (Worker threads'
  /// malloc arenas make the peak of the two-worker loop vary by 30%
  /// between runs of one seed.)
  std::size_t memory_pass_requests = 0;
  /// Corpus is loaded through SaveSnapshot + OpenSnapshot (spill store).
  bool via_snapshot = false;
};

struct Traffic {
  Workload workload = Workload::kServeSmall;
  WorkloadConfig config;
  std::vector<DocRecipe> docs;
  std::vector<Query> queries;
  std::vector<Request> requests;
};

/// The traffic of `workload` for `seed`.
Traffic MakeTraffic(Workload workload, std::uint64_t seed);

/// Page size of every stream request.
inline constexpr std::size_t kStreamPage = 100;

}  // namespace xpvbench

#endif  // XPVBENCH_TRAFFIC_H_
