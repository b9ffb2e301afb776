// xpv serving benchmark.
//
//   xpvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 drives the workload's traffic through DocumentStore /
// QueryService / QueryStream in a closed loop (one client thread keeping
// two TrySubmit batches outstanding, a two-worker service) and reports the
// end-to-end metrics. --trace 1 replays the same traffic through the
// layers' public entry points with spans around each call and reports the
// per-layer metrics. Both check every answer; the last line of standard
// output is one JSON object, and any answer mismatch exits nonzero.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "digest.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/query_service.h"
#include "replay.h"
#include "traffic.h"

namespace xpvbench {
namespace {

namespace fs = std::filesystem;
using xpv::engine::BatchHandle;
using xpv::engine::DocumentId;
using xpv::engine::DocumentStore;
using xpv::engine::EnginePlan;
using xpv::engine::QueryJob;
using xpv::engine::QueryResult;
using xpv::engine::QueryService;
using xpv::engine::ResultShape;

constexpr std::size_t kSetupRepetitions = 5;
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kWindow = 2;

struct Options {
  Workload workload = Workload::kServeSmall;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!ParseWorkload(value, &o->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (the `steal` column of /proc/stat), in seconds.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return cpu == "cpu" ? v[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
}

std::uintmax_t DirBytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// Answer digests per (request, job) of the pass, set on first sight; a
/// later answer that differs is a correctness failure.
class DigestBook {
 public:
  explicit DigestBook(const Traffic& t) {
    for (const Request& r : t.requests) {
      slots_.emplace_back(r.jobs.size(), std::nullopt);
    }
  }
  void Check(std::size_t request, std::size_t job, std::uint64_t digest,
             const char* who) {
    auto& slot = slots_[request][job];
    ++checked_;
    if (!slot.has_value()) {
      slot = digest;
    } else if (*slot != digest) {
      ++mismatches_;
      if (mismatches_ <= 5) {
        std::fprintf(stderr, "MISMATCH (%s): request %zu job %zu\n", who,
                     request, job);
      }
    }
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::vector<std::vector<std::optional<std::uint64_t>>> slots_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// A loaded corpus: the store and the document id of every slot.
struct Corpus {
  std::unique_ptr<DocumentStore> store;
  std::vector<DocumentId> ids;  // xpv::engine::kNoDocument while removed
  std::vector<std::size_t> tree_bytes;  // per slot, resident Tree bytes
};

std::string SlotName(std::size_t slot) { return "doc-" + std::to_string(slot); }

/// Generates the corpus as XML text and loads it with InsertXml (parse,
/// index, insert); corpus_spill then goes through a snapshot written with
/// SaveSnapshot and reopened as a spill-bounded store.
Corpus LoadCorpus(const Traffic& t, const std::string& dir) {
  Corpus c;
  c.ids.resize(t.docs.size());
  c.tree_bytes.resize(t.docs.size());
  auto fill = [&](DocumentStore& store) {
    for (std::size_t s = 0; s < t.docs.size(); ++s) {
      const std::string xml = BuildDoc(t.docs[s]).ToXml();
      xpv::Result<DocumentId> id = store.InsertXml(xml, SlotName(s));
      if (!id.ok()) {
        std::fprintf(stderr, "InsertXml: %s\n", id.status().ToString().c_str());
        std::exit(2);
      }
      c.ids[s] = *id;
      c.tree_bytes[s] = store.Get(*id)->tree().resident_bytes();
    }
  };
  if (!t.config.via_snapshot) {
    c.store = std::make_unique<DocumentStore>(t.config.store);
    fill(*c.store);
    return c;
  }
  fs::create_directories(dir);
  {
    DocumentStore staging;
    fill(staging);
    xpv::Status saved = staging.SaveSnapshot(dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveSnapshot: %s\n", saved.ToString().c_str());
      std::exit(2);
    }
  }
  xpv::engine::DocumentStoreOptions options = t.config.store;
  options.spill_dir = dir;
  auto opened = DocumentStore::OpenSnapshot(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "OpenSnapshot: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  c.store = std::move(opened).value();
  return c;
}

std::unique_ptr<QueryService> MakeService(DocumentStore* store,
                                          std::size_t threads) {
  xpv::engine::QueryServiceOptions options;
  options.num_threads = threads;
  options.document_store = store;
  // Two batches in the client's window plus the one stream it may hold
  // open while they run.
  options.max_inflight_batches = kWindow + 1;
  return std::make_unique<QueryService>(options);
}

/// Re-inserts every removed slot's document (rebuilt from its recipe).
void RestoreRemoved(const Traffic& t, Corpus& c) {
  for (std::size_t s = 0; s < c.ids.size(); ++s) {
    if (c.ids[s] == xpv::engine::kNoDocument) {
      c.ids[s] = c.store->Insert(BuildDoc(t.docs[s]), SlotName(s));
    }
  }
}

// ------------------------------------------------------- the closed loop

/// A latency sample and when (seconds into the loop) it completed.
struct Sample {
  double at_s;
  double ms;
};

struct LoopStats {
  Clock::time_point t0 = Clock::now();
  std::vector<Sample> req_ms;   // batch requests: TrySubmit -> Wait
  std::vector<Sample> page_ms;  // streams: OpenStream + first NextBatch
  /// (completion time, OK jobs) of every finished batch or stream.
  std::vector<std::pair<double, std::uint32_t>> ok_events;
  std::vector<double> submit_us;
  std::vector<double> churn_ms;  // Insert / Remove calls
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::map<std::string, std::uint64_t> routes;  // engine/repr of OK jobs
  std::map<std::string, std::uint64_t> shapes;
};

std::string RouteName(const xpv::engine::ExecutionPlan& p) {
  std::string name(xpv::engine::EnginePlanName(p.engine));
  if (p.engine == EnginePlan::kMatrixGeneral) {
    name += p.repr == xpv::MatrixRepr::kDense ? "/dense" : "/sparse";
  }
  if (p.row_restricted) name += "/row";
  return name;
}

/// One client thread driving the service: batch requests go through
/// TrySubmit with at most `window` outstanding; streams and corpus churn
/// run synchronously on the client while batches execute. Window 0 runs
/// batches synchronously through EvaluateBatch instead, which on a
/// one-thread service evaluates on the client thread itself.
class Client {
 public:
  Client(const Traffic& t, Corpus& c, QueryService& service, DigestBook& book,
         std::size_t window)
      : t_(t), c_(c), service_(service), book_(book), window_(window) {}

  void Run(std::size_t index, LoopStats& stats) {
    const std::size_t r = index % t_.requests.size();
    const Request& req = t_.requests[r];
    ++stats.requests;
    switch (req.kind) {
      case Request::Kind::kBatch:
        Submit(r, stats);
        return;
      case Request::Kind::kStream:
        RunStream(r, stats);
        return;
      case Request::Kind::kRemove: {
        const std::uint32_t slot = req.jobs[0].slot;
        // In-flight jobs on the document would fail with NotFound; a
        // remove waits for the batches that address it.
        while (std::any_of(pending_.begin(), pending_.end(),
                           [&](const Pending& p) {
                             return p.slots.contains(slot);
                           })) {
          CompleteOldest(stats);
        }
        const Clock::time_point t0 = Clock::now();
        c_.store->Remove(c_.ids[slot]);
        stats.churn_ms.push_back(SecondsSince(t0) * 1e3);
        c_.ids[slot] = xpv::engine::kNoDocument;
        return;
      }
      case Request::Kind::kInsert: {
        const std::uint32_t slot = req.jobs[0].slot;
        xpv::Tree tree = BuildDoc(t_.docs[slot]);
        const Clock::time_point t0 = Clock::now();
        c_.ids[slot] = c_.store->Insert(std::move(tree), SlotName(slot));
        stats.churn_ms.push_back(SecondsSince(t0) * 1e3);
        return;
      }
    }
  }

  void Drain(LoopStats& stats) {
    while (!pending_.empty()) CompleteOldest(stats);
    CheckCompleted(stats);
  }

 private:
  struct Pending {
    BatchHandle handle;
    Clock::time_point t0;
    std::size_t request;
    std::set<std::uint32_t> slots;
  };
  struct Completed {
    std::size_t request;
    std::vector<QueryResult> results;
  };

  void Submit(std::size_t r, LoopStats& stats) {
    if (window_ > 0 && pending_.size() >= window_) CompleteOldest(stats);
    const Request& req = t_.requests[r];
    std::vector<QueryJob> jobs;
    std::set<std::uint32_t> slots;
    for (const JobSpec& j : req.jobs) {
      QueryJob job;
      job.document = c_.ids[j.slot];
      job.query = t_.queries[j.query].text;
      job.shape = j.shape;
      jobs.push_back(std::move(job));
      slots.insert(j.slot);
    }
    stats.attempted += jobs.size();
    const Clock::time_point t0 = Clock::now();
    if (window_ == 0) {
      std::vector<QueryResult> results = service_.EvaluateBatch(jobs);
      const double at = SecondsSince(stats.t0);
      stats.req_ms.push_back(Sample{at, SecondsSince(t0) * 1e3});
      done_at_.push_back(at);
      completed_.push_back(Completed{r, std::move(results)});
      CheckCompleted(stats);
      return;
    }
    auto handle = service_.TrySubmit(std::move(jobs));
    stats.submit_us.push_back(SecondsSince(t0) * 1e6);
    if (!handle.ok()) {
      stats.failed += req.jobs.size();
    } else {
      pending_.push_back(Pending{*handle, t0, r, std::move(slots)});
    }
    // Check answers only after the window is full again, so the client's
    // own work overlaps the service's.
    CheckCompleted(stats);
  }

  void CompleteOldest(LoopStats& stats) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    std::vector<QueryResult> results = p.handle.Wait();
    done_at_.push_back(SecondsSince(stats.t0));
    stats.req_ms.push_back(
        Sample{SecondsSince(stats.t0), SecondsSince(p.t0) * 1e3});
    completed_.push_back(Completed{p.request, std::move(results)});
  }

  void CheckCompleted(LoopStats& stats) {
    for (std::size_t c = 0; c < completed_.size(); ++c) {
      Completed& done = completed_[c];
      const Request& req = t_.requests[done.request];
      std::uint32_t ok = 0;
      for (std::size_t j = 0; j < done.results.size(); ++j) {
        const QueryResult& res = done.results[j];
        const JobSpec& spec = req.jobs[j];
        if (res.status.ok()) {
          ++ok;
          ++stats.routes[RouteName(res.plan)];
        } else {
          ++stats.failed;
          if (stats.failed <= 3) {
            std::fprintf(stderr, "job failed: %s\n",
                         res.status.ToString().c_str());
          }
        }
        ++stats.shapes[std::string(xpv::engine::ResultShapeName(spec.shape))];
        book_.Check(done.request, j,
                    DigestResult(res, spec.shape, t_.queries[spec.query].nary),
                    "service");
      }
      stats.ok += ok;
      stats.ok_events.push_back({done_at_[c], ok});
    }
    completed_.clear();
    done_at_.clear();
  }

  void RunStream(std::size_t r, LoopStats& stats) {
    const JobSpec& spec = t_.requests[r].jobs[0];
    ++stats.attempted;
    ++stats.shapes["stream"];
    const Clock::time_point t0 = Clock::now();
    auto opened =
        service_.OpenStream(c_.ids[spec.slot], t_.queries[spec.query].text);
    if (!opened.ok()) {
      ++stats.failed;
      std::fprintf(stderr, "stream failed: %s\n",
                   opened.status().ToString().c_str());
      return;
    }
    xpv::engine::QueryStream stream = std::move(opened).value();
    auto page = stream.NextBatch(kStreamPage);
    stats.page_ms.push_back(
        Sample{SecondsSince(stats.t0), SecondsSince(t0) * 1e3});
    ++stats.routes["stream/" + std::string(xpv::engine::StreamBackingName(
                                   stream.stats().plan.backing))];
    stream.Close();
    if (!page.ok()) {
      ++stats.failed;
      book_.Check(r, 0, DigestPage({}) ^ 1, "service");
      return;
    }
    ++stats.ok;
    stats.ok_events.push_back({SecondsSince(stats.t0), 1});
    book_.Check(r, 0, DigestPage(*page), "service");
  }

  const Traffic& t_;
  Corpus& c_;
  QueryService& service_;
  DigestBook& book_;
  const std::size_t window_;
  std::deque<Pending> pending_;
  std::vector<Completed> completed_;
  std::vector<double> done_at_;  // per completed_ entry
};

// --------------------------------------------------------------- set-up

struct Setup {
  Corpus corpus;
  std::vector<double> times_s;
  double median_s = 0;
};

/// Generates and loads the corpus kSetupRepetitions times and keeps the
/// last; set-up time is the median repetition.
Setup RunSetup(const Traffic& t, const std::string& work) {
  Setup s;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    s.corpus = Corpus();
    fs::remove_all(work + "/corpus");
    const Clock::time_point t0 = Clock::now();
    s.corpus = LoadCorpus(t, work + "/corpus");
    s.times_s.push_back(SecondsSince(t0));
  }
  s.median_s = Median(s.times_s);
  return s;
}

// ----------------------------------------------------- traffic summary

void PrintTraffic(const Traffic& t, const LoopStats& stats) {
  std::map<std::string, std::vector<std::size_t>> sizes;
  for (const DocRecipe& d : t.docs) {
    sizes[FamilyName(d.family)].push_back(BuildDoc(d).size());
  }
  std::set<std::string> canonical;
  for (const Query& q : t.queries) {
    auto compiled = xpv::engine::CompileQuery(q.text);
    canonical.insert(compiled.ok() ? (*compiled)->canonical_text
                                   : "error:" + q.text);
  }
  std::printf("traffic {\"workload\": \"%s\", \"documents\": {",
              WorkloadName(t.workload));
  bool first = true;
  for (auto& [family, v] : sizes) {
    std::sort(v.begin(), v.end());
    std::printf("%s\"%s\": {\"count\": %zu, \"min_nodes\": %zu, "
                "\"median_nodes\": %zu, \"max_nodes\": %zu}",
                first ? "" : ", ", family.c_str(), v.size(), v.front(),
                v[v.size() / 2], v.back());
    first = false;
  }
  std::printf("}, \"query_texts\": %zu, \"distinct_canonical_queries\": %zu, "
              "\"requests_per_pass\": %zu, \"requests_run\": %" PRIu64,
              t.queries.size(), canonical.size(), t.requests.size(),
              stats.requests);
  for (const auto* mix : {&stats.routes, &stats.shapes}) {
    std::printf(", \"%s\": {", mix == &stats.routes ? "routes" : "shapes");
    first = true;
    for (const auto& [name, n] : *mix) {
      std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ", name.c_str(), n);
      first = false;
    }
    std::printf("}");
  }
  std::printf("}\n");
}

// ------------------------------------------------------ correctness

/// Checks the first distinct queries of the pass against the Fig. 2
/// semantics on a small document of their family (outside timing).
std::uint64_t RunOracle(const Traffic& t, std::uint64_t seed,
                        std::uint64_t* checked) {
  DocumentStore store;
  auto service = MakeService(&store, 1);
  std::map<Family, std::pair<DocumentId, const xpv::Tree*>> docs;
  std::set<std::size_t> seen;
  std::uint64_t failures = 0;
  std::size_t binary = 0;
  std::size_t nary = 0;
  for (const Request& r : t.requests) {
    if (r.kind != Request::Kind::kBatch && r.kind != Request::Kind::kStream) {
      continue;
    }
    for (const JobSpec& j : r.jobs) {
      const Query& q = t.queries[j.query];
      std::size_t& budget = q.nary ? nary : binary;
      if (budget >= (q.nary ? 3u : 8u) || !seen.insert(q.base).second) {
        continue;
      }
      ++budget;
      if (!docs.contains(q.family)) {
        DocRecipe recipe{q.family, 300, seed ^ 0x5eed};
        const DocumentId id = store.Insert(BuildDoc(recipe));
        docs[q.family] = {id, &store.Get(id)->tree()};
      }
      const auto [id, tree] = docs[q.family];
      const QueryResult full =
          service->Evaluate(id, q.text, ResultShape::kFullRelation);
      std::string why = OracleCheck(*tree, q.text, ResultShape::kFullRelation,
                                    q.nary, full, seed + j.query);
      // The monadic shapes take other engine paths (row-restricted
      // evaluation); binary ones are checked against Fig. 2 as well,
      // n-ary ones against the checked answer set.
      for (ResultShape shape : {ResultShape::kFromRootSet,
                                ResultShape::kCount, ResultShape::kBoolean}) {
        if (!why.empty()) break;
        const QueryResult res = service->Evaluate(id, q.text, shape);
        if (!q.nary) {
          why = OracleCheck(*tree, q.text, shape, false, res, seed);
          continue;
        }
        QueryResult expected;
        expected.tuples = full.tuples;
        expected.count = full.tuples.size();
        expected.boolean = !full.tuples.empty();
        if (DigestResult(res, shape, true) !=
            DigestResult(expected, shape, true)) {
          why = std::string(xpv::engine::ResultShapeName(shape)) +
                " answer disagrees with the checked answer set";
        }
      }
      ++*checked;
      if (!why.empty()) {
        ++failures;
        std::fprintf(stderr, "ORACLE MISMATCH on '%s': %s\n", q.text.c_str(),
                     why.c_str());
      }
    }
  }
  return failures;
}

/// Replays the first requests of the pass through the direct layers and
/// checks their digests against the service's (outside timing).
void CrossCheck(const Traffic& t, Corpus& c, QueryService& service,
                DigestBook& book, double budget_s) {
  Replayer replay(*c.store, service, nullptr);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < t.requests.size() && SecondsSince(t0) < budget_s;
       ++r) {
    const Request& req = t.requests[r];
    if (req.kind == Request::Kind::kRemove ||
        req.kind == Request::Kind::kInsert) {
      continue;  // every slot is live after RestoreRemoved
    }
    for (std::size_t j = 0; j < req.jobs.size(); ++j) {
      const JobSpec& spec = req.jobs[j];
      const std::string& text = t.queries[spec.query].text;
      const std::uint64_t d =
          req.kind == Request::Kind::kStream
              ? replay.Stream(c.ids[spec.slot], text, 0)
              : replay.Job(c.ids[spec.slot], text, spec.shape, 0);
      book.Check(r, j, d, "direct-layer replay");
    }
  }
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", std::max<std::uint64_t>(attempted, 1),
              failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct SnapshotFigures {
  double save_ms = 0;
  double open_ms = 0;
  std::uintmax_t bytes = 0;
  /// Snapshot bytes per resident tree byte of the same documents.
  double bytes_per_tree_byte = 0;
};

/// Saves the served corpus as a snapshot in `dir` (and, if `reopen`,
/// opens it again as a fresh store) and measures it.
SnapshotFigures SnapshotCorpus(const Corpus& c, const std::string& dir,
                               bool reopen) {
  SnapshotFigures f;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Clock::time_point t0 = Clock::now();
  xpv::Status saved = c.store->SaveSnapshot(dir);
  f.save_ms = SecondsSince(t0) * 1e3;
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveSnapshot: %s\n", saved.ToString().c_str());
    return f;
  }
  f.bytes = DirBytes(dir);
  if (reopen) {
    t0 = Clock::now();
    auto opened = DocumentStore::OpenSnapshot(dir);
    f.open_ms = SecondsSince(t0) * 1e3;
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenSnapshot: %s\n",
                   opened.status().ToString().c_str());
    }
  }
  std::size_t tree_bytes = 0;
  for (std::size_t b : c.tree_bytes) tree_bytes += b;
  if (tree_bytes > 0) {
    f.bytes_per_tree_byte =
        static_cast<double>(f.bytes) / static_cast<double>(tree_bytes);
  }
  return f;
}

// ---------------------------------------------------------- untraced run

/// The end-to-end figures of the timed loop: each is the median over the
/// workload's time slices of that slice's value.
struct Figures {
  double jobs_per_s = 0;
  double req_p50_ms = 0;
  double req_tail_ms = 0;
  double page_p50_ms = 0;
  double page_tail_ms = 0;
  /// Fewest samples beyond the tail percentile in any slice.
  double req_beyond_min = 0;
  double page_beyond_min = 0;
};

Figures SliceFigures(const LoopStats& stats, const WorkloadConfig& c,
                     double seconds, double elapsed) {
  const std::size_t k = std::max<std::size_t>(c.slices, 1);
  std::vector<double> rate, req50, req_tail, page50, page_tail;
  Figures f;
  f.req_beyond_min = f.page_beyond_min = 1e18;
  for (std::size_t i = 0; i < k; ++i) {
    // The last slice also takes the completions of the final drain.
    const double lo = seconds * static_cast<double>(i) / static_cast<double>(k);
    const double hi = i + 1 == k ? 1e18
                                 : seconds * static_cast<double>(i + 1) /
                                       static_cast<double>(k);
    const double span = (i + 1 == k ? elapsed : hi) - lo;
    auto in = [&](double at) { return at >= lo && at < hi; };
    double ok = 0;
    for (const auto& [at, n] : stats.ok_events) {
      if (in(at)) ok += n;
    }
    rate.push_back(ok / span);
    std::vector<double> req, page;
    for (const Sample& s : stats.req_ms) {
      if (in(s.at_s)) req.push_back(s.ms);
    }
    for (const Sample& s : stats.page_ms) {
      if (in(s.at_s)) page.push_back(s.ms);
    }
    req50.push_back(Median(req));
    req_tail.push_back(Percentile(req, c.req_tail_percentile));
    page50.push_back(Median(page));
    page_tail.push_back(Percentile(page, c.page_tail_percentile));
    f.req_beyond_min = std::min(
        f.req_beyond_min,
        std::floor(static_cast<double>(req.size()) *
                   (100 - c.req_tail_percentile) / 100));
    f.page_beyond_min = std::min(
        f.page_beyond_min,
        std::floor(static_cast<double>(page.size()) *
                   (100 - c.page_tail_percentile) / 100));
  }
  f.jobs_per_s = Median(rate);
  f.req_p50_ms = Median(req50);
  f.req_tail_ms = Median(req_tail);
  f.page_p50_ms = Median(page50);
  f.page_tail_ms = Median(page_tail);
  return f;
}

int RunEndToEnd(const Options& o, const Traffic& t, const std::string& work) {
  DigestBook book(t);
  Setup s = RunSetup(t, work);

  // Untimed: the memory pass, on this thread through a one-thread
  // service, after which peak RSS is read.
  const std::size_t first = t.config.memory_pass_requests;
  {
    auto inline_service = MakeService(s.corpus.store.get(), 1);
    Client client(t, s.corpus, *inline_service, book, 0);
    LoopStats stats;
    for (std::size_t i = 0; i < first; ++i) client.Run(i, stats);
    client.Drain(stats);
    RestoreRemoved(t, s.corpus);
  }
  const double peak_rss_mb = PeakRssMiB();

  // The timed loop: this thread, the service's dispatcher, two workers.
  auto service = MakeService(s.corpus.store.get(), kServiceWorkers);
  LoopStats stats;
  Client client(t, s.corpus, *service, book, kWindow);
  const double steal0 = StealSeconds();
  const Clock::time_point t0 = stats.t0 = Clock::now();
  std::size_t i = first;
  while (SecondsSince(t0) < o.seconds) client.Run(i++, stats);
  client.Drain(stats);
  const double elapsed = SecondsSince(t0);
  const double steal_s = StealSeconds() - steal0;

  // Outside timing: finish the pass's churn, then check answers.
  RestoreRemoved(t, s.corpus);
  CrossCheck(t, s.corpus, *service, book, 1.0);
  service.reset();
  std::uint64_t oracle_checked = 0;
  const std::uint64_t oracle_failures = RunOracle(t, o.seed, &oracle_checked);
  const SnapshotFigures snap =
      SnapshotCorpus(s.corpus, work + "/snapshot", false);

  PrintTraffic(t, stats);
  const Figures f = SliceFigures(stats, t.config, o.seconds, elapsed);
  std::printf("setup {\"repetitions_s\": [");
  for (std::size_t r = 0; r < s.times_s.size(); ++r) {
    std::printf("%s%.6f", r == 0 ? "" : ", ", s.times_s[r]);
  }
  std::printf("]}\n");
  std::printf("latency {\"req_samples\": %zu, \"page_samples\": %zu, "
              "\"slices\": %zu, \"req_tail_percentile\": %g, "
              "\"page_tail_percentile\": %g, \"req_beyond_tail_min\": %.0f, "
              "\"page_beyond_tail_min\": %.0f, \"churn_p50_ms\": %.4f, "
              "\"elapsed_s\": %.3f, \"host_steal_s\": %.2f}\n",
              stats.req_ms.size(), stats.page_ms.size(), t.config.slices,
              t.config.req_tail_percentile, t.config.page_tail_percentile,
              f.req_beyond_min, f.page_beyond_min, Median(stats.churn_ms),
              elapsed, steal_s);
  for (const auto* samples : {&stats.req_ms, &stats.page_ms}) {
    std::vector<double> ms;
    for (const Sample& sample : *samples) ms.push_back(sample.ms);
    std::printf("%s_quantiles_ms {", samples == &stats.req_ms ? "req" : "page");
    const double pcts[] = {10, 25, 50, 75, 90, 95, 99, 99.9};
    for (double p : pcts) {
      std::printf("%s\"p%g\": %.4f", p == pcts[0] ? "" : ", ", p,
                  Percentile(ms, p));
    }
    std::printf("}\n");
  }
  std::printf("checks {\"digests_checked\": %" PRIu64
              ", \"digest_mismatches\": %" PRIu64
              ", \"oracle_checked\": %" PRIu64 ", \"oracle_failures\": %" PRIu64
              "}\n",
              book.checked(), book.mismatches(), oracle_checked,
              oracle_failures);

  const bool correct = book.mismatches() == 0 && oracle_failures == 0;
  PrintResult(correct, stats.attempted, stats.failed,
              {
                  {"setup_s", s.median_s, "s"},
                  {"jobs_per_s", f.jobs_per_s, "jobs/s"},
                  {"req_p50_ms", f.req_p50_ms, "ms"},
                  {"req_tail_ms", f.req_tail_ms, "ms"},
                  {"first_page_p50_ms", f.page_p50_ms, "ms"},
                  {"first_page_tail_ms", f.page_tail_ms, "ms"},
                  {"peak_rss_mb", peak_rss_mb, "MiB"},
                  {"disk_bytes_per_tree_byte", snap.bytes_per_tree_byte,
                   "ratio"},
              });
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ traced run

/// Plan regret on a sample of binary jobs: the planner's route against
/// every forced admissible route, on a store with the RelationCache off
/// so no route is timed on another's cache hits. Returns
/// sum(auto) / sum(min over forced routes), or 0 without binary jobs.
double MeasureRegret(const Traffic& t, double budget_s, DigestBook& book,
                     std::uint64_t* samples) {
  xpv::engine::DocumentStoreOptions options;
  options.relation_cache_bytes = 0;
  DocumentStore store(options);
  auto service = MakeService(&store, 1);
  std::map<std::uint32_t, DocumentId> ids;
  std::set<std::pair<std::uint32_t, std::size_t>> seen;
  double sum_auto = 0;
  double sum_best = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < t.requests.size(); ++r) {
    const Request& req = t.requests[r];
    if (req.kind != Request::Kind::kBatch) continue;
    for (std::size_t j = 0; j < req.jobs.size(); ++j) {
      if (SecondsSince(t0) >= budget_s || *samples >= 8) break;
      const JobSpec& spec = req.jobs[j];
      const Query& q = t.queries[spec.query];
      if (q.nary || !seen.insert({spec.slot, q.base}).second) continue;
      if (!ids.contains(spec.slot)) {
        ids[spec.slot] = store.Insert(BuildDoc(t.docs[spec.slot]));
      }
      auto compiled = xpv::engine::CompileQuery(q.text);
      if (!compiled.ok()) continue;
      const std::size_t n = store.Get(ids[spec.slot])->tree().size();
      std::vector<QueryJob> routes(1);
      if ((*compiled)->positive) {
        routes.emplace_back().engine_override = EnginePlan::kGkpPositive;
      }
      if (n <= xpv::AxisCache::kAutoDenseMaxNodes) {
        QueryJob& dense = routes.emplace_back();
        dense.engine_override = EnginePlan::kMatrixGeneral;
        dense.repr_override = xpv::MatrixRepr::kDense;
      }
      QueryJob& sparse = routes.emplace_back();
      sparse.engine_override = EnginePlan::kMatrixGeneral;
      sparse.repr_override = xpv::MatrixRepr::kSparse;
      double best = 0;
      for (std::size_t k = 0; k < routes.size(); ++k) {
        QueryJob& job = routes[k];
        job.document = ids[spec.slot];
        job.query = q.text;
        job.shape = spec.shape;
        // Second of two runs: the document's axis relations are built.
        double ms = 0;
        std::vector<QueryResult> res;
        for (int rep = 0; rep < 2; ++rep) {
          const Clock::time_point j0 = Clock::now();
          res = service->EvaluateBatch({job});
          ms = SecondsSince(j0) * 1e3;
        }
        book.Check(r, j, DigestResult(res[0], spec.shape, false),
                   k == 0 ? "regret auto route" : "regret forced route");
        if (k == 0) {
          sum_auto += ms;
        } else if (best == 0 || ms < best) {
          best = ms;
        }
      }
      sum_best += best;
      ++*samples;
    }
  }
  return sum_best > 0 ? sum_auto / sum_best : 0;
}

int RunTraced(const Options& o, const Traffic& t, const std::string& work,
              const std::string& spans_path) {
  DigestBook book(t);
  // Phase A (single-threaded service, one batch at a time): the untraced
  // per-job time and the admission front door's cost.
  Setup s = RunSetup(t, work);
  DocumentStore& store = *s.corpus.store;
  auto service = MakeService(&store, 1);
  const xpv::engine::ServiceStats svc0 = service->stats();
  LoopStats a;
  double a_batch_ms = 0;
  std::uint64_t a_batch_jobs = 0;
  {
    Client client(t, s.corpus, *service, book, 1);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; SecondsSince(t0) < 0.3 * o.seconds; ++i) {
      client.Run(i, a);
      client.Drain(a);
    }
    for (const Sample& sample : a.req_ms) a_batch_ms += sample.ms;
    for (std::size_t i = 0; i < a.requests; ++i) {
      const Request& req = t.requests[i % t.requests.size()];
      if (req.kind == Request::Kind::kBatch) a_batch_jobs += req.jobs.size();
    }
  }
  const std::uint64_t rejected =
      service->stats().batches_rejected - svc0.batches_rejected;
  RestoreRemoved(t, s.corpus);

  // Phase B: traced direct-layer replay. Phase C: the same requests
  // without spans, for the tracing overhead.
  const xpv::engine::DocumentStoreStats st0 = store.stats();
  Tracer tracer;
  Replayer traced(store, *service, &tracer);
  std::size_t resident_max = 0;
  // Per-cache counters, first seen vs. end of replay: the store's
  // aggregates drop a removed document's counts.
  std::map<const xpv::ppl::RelationCache*,
           std::pair<std::shared_ptr<xpv::ppl::RelationCache>,
                     xpv::ppl::RelationCacheStats>>
      relcaches;
  std::uint64_t memo_hits0 = 0;
  std::uint64_t memo_misses0 = 0;
  std::map<DocumentId, std::shared_ptr<xpv::engine::PlanMemo>> memos;
  auto observe_doc = [&](DocumentId id) {
    if (auto rc = store.RelationCacheFor(id); rc && !relcaches.contains(rc.get())) {
      relcaches[rc.get()] = {rc, rc->stats()};
    }
    if (auto memo = store.PlanMemoFor(id); memo && !memos.contains(id)) {
      memos[id] = memo;
      memo_hits0 += memo->hits();
      memo_misses0 += memo->misses();
    }
  };
  auto replay_request = [&](Replayer& rp, std::size_t r, bool record) {
    const Request& req = t.requests[r];
    Tracer::Scope root(rp.tracer(), "request", static_cast<std::uint32_t>(r));
    switch (req.kind) {
      case Request::Kind::kRemove: {
        Tracer::Scope sp(rp.tracer(), "store.remove", static_cast<std::uint32_t>(r));
        store.Remove(s.corpus.ids[req.jobs[0].slot]);
        s.corpus.ids[req.jobs[0].slot] = xpv::engine::kNoDocument;
        return;
      }
      case Request::Kind::kInsert: {
        const std::uint32_t slot = req.jobs[0].slot;
        xpv::Tree tree = BuildDoc(t.docs[slot]);
        Tracer::Scope sp(rp.tracer(), "store.insert", static_cast<std::uint32_t>(r));
        s.corpus.ids[slot] = store.Insert(std::move(tree), SlotName(slot));
        return;
      }
      default:
        break;
    }
    for (std::size_t j = 0; j < req.jobs.size(); ++j) {
      const JobSpec& spec = req.jobs[j];
      const DocumentId id = s.corpus.ids[spec.slot];
      if (record) observe_doc(id);
      const std::string& text = t.queries[spec.query].text;
      const std::uint64_t d =
          req.kind == Request::Kind::kStream
              ? rp.Stream(id, text, static_cast<std::uint32_t>(r))
              : rp.Job(id, text, spec.shape, static_cast<std::uint32_t>(r));
      book.Check(r, j, d, record ? "traced replay" : "untraced replay");
    }
    if (record) resident_max = std::max(resident_max, store.stats().resident_docs);
  };

  std::size_t n = 0;
  const Clock::time_point b0 = Clock::now();
  while (SecondsSince(b0) < 0.4 * o.seconds || n == 0) {
    replay_request(traced, n % t.requests.size(), true);
    ++n;
  }
  const double traced_s = SecondsSince(b0);
  const xpv::engine::DocumentStoreStats st1 = store.stats();
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  for (const auto& [id, memo] : memos) {
    memo_hits += memo->hits();
    memo_misses += memo->misses();
  }
  memo_hits -= memo_hits0;
  memo_misses -= memo_misses0;
  double evictions = 0;
  double relcache_hits = 0;
  double relcache_misses = 0;
  for (const auto& [ptr, entry] : relcaches) {
    const xpv::ppl::RelationCacheStats now = entry.first->stats();
    evictions += static_cast<double>(now.evictions - entry.second.evictions);
    relcache_hits += static_cast<double>(now.hits - entry.second.hits);
    relcache_misses += static_cast<double>(now.misses - entry.second.misses);
  }
  RestoreRemoved(t, s.corpus);

  Replayer untraced(store, *service, nullptr);
  const Clock::time_point c0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    replay_request(untraced, i % t.requests.size(), false);
  }
  const double untraced_s = SecondsSince(c0);
  RestoreRemoved(t, s.corpus);

  std::uint64_t regret_samples = 0;
  const double regret =
      MeasureRegret(t, 0.2 * o.seconds, book, &regret_samples);
  const SnapshotFigures snap =
      SnapshotCorpus(s.corpus, work + "/snapshot", true);
  std::uint64_t oracle_checked = 0;
  const std::uint64_t oracle_failures = RunOracle(t, o.seed, &oracle_checked);

  // Layer accounting over the traced replay.
  const std::map<std::string, double> self = tracer.SelfMicros();
  std::map<std::string, double> layer_us;
  double total_us = 0;
  for (const auto& [name, us] : self) {
    const std::string layer = LayerOf(name);
    layer_us[layer] += us;
    if (layer != "bench.harness") total_us += us;
  }
  auto span_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto share = [&](std::initializer_list<const char*> layers) {
    double sum = 0;
    for (const char* l : layers) sum += layer_us[l];
    return total_us > 0 ? sum / total_us : 0;
  };
  const ReplayCounts& rc = traced.counts();
  const double jobs = static_cast<double>(std::max<std::uint64_t>(rc.jobs, 1));
  const double streams =
      static_cast<double>(std::max<std::uint64_t>(rc.streams, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  double job_layer_us = 0;
  for (const char* name : {"store.fetch", "compile", "plan", "axis", "gkp",
                           "matrix", "nary", "payload"}) {
    job_layer_us += span_us(name);
  }
  const double untraced_job_us =
      ratio(a_batch_ms * 1e3, static_cast<double>(a_batch_jobs));
  double submit_us = 0;
  for (double us : a.submit_us) submit_us += us;

  if (!tracer.WriteJsonLines(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }
  std::printf("layers {\"spans_file\": \"%s\", \"spans\": %" PRIu64
              ", \"spans_in_file\": %zu, \"replayed_requests\": %zu, "
              "\"self_ms\": {",
              spans_path.c_str(), tracer.spans_total(),
              tracer.stored_spans().size(), n);
  bool first = true;
  for (const auto& [layer, us] : layer_us) {
    std::printf("%s\"%s\": %.3f", first ? "" : ", ", layer.c_str(), us / 1e3);
    first = false;
  }
  const double kernels = share({"ppl.gkp_engine", "ppl.matrix_engine"});
  const double nary_stream = share({"hcl.answer", "engine.query_stream"});
  const double store_share = share({"engine.document_store"});
  std::printf("}, \"share_kernels\": %.4f, \"share_nary_stream\": %.4f, "
              "\"share_store\": %.4f}\n",
              kernels, nary_stream, store_share);
  LoopStats all = a;
  all.requests += n;
  PrintTraffic(t, all);
  std::printf("checks {\"digests_checked\": %" PRIu64
              ", \"digest_mismatches\": %" PRIu64
              ", \"oracle_checked\": %" PRIu64 ", \"oracle_failures\": %" PRIu64
              "}\n",
              book.checked(), book.mismatches(), oracle_checked,
              oracle_failures);

  const double axis_hits = static_cast<double>(st1.cache_hits - st0.cache_hits);
  const double axis_builds =
      static_cast<double>(st1.cache_builds - st0.cache_builds);
  const double compile_hits = static_cast<double>(traced.compile_cache().hits());
  const double compile_misses =
      static_cast<double>(traced.compile_cache().misses());
  const bool correct = book.mismatches() == 0 && oracle_failures == 0;
  PrintResult(
      correct, a.attempted + 2 * (rc.jobs + rc.streams), a.failed,
      {
          {"compile.us_per_job", span_us("compile") / jobs, "us"},
          {"compile.hit_ratio",
           ratio(compile_hits, compile_hits + compile_misses), "ratio"},
          {"plan.us_per_job", span_us("plan") / jobs, "us"},
          {"plan.memo_hit_ratio",
           ratio(static_cast<double>(memo_hits),
                 static_cast<double>(memo_hits + memo_misses)),
           "ratio"},
          {"plan.regret_ratio", regret, "ratio"},
          {"plan.regret_samples", static_cast<double>(regret_samples), "count"},
          {"plan.jobs_gkp", static_cast<double>(rc.jobs_gkp), "count"},
          {"plan.jobs_matrix_dense", static_cast<double>(rc.jobs_matrix_dense),
           "count"},
          {"plan.jobs_matrix_sparse",
           static_cast<double>(rc.jobs_matrix_sparse), "count"},
          {"plan.jobs_nary", static_cast<double>(rc.jobs_nary), "count"},
          {"axis.build_us_per_job", span_us("axis") / jobs, "us"},
          {"axis.builds", axis_builds, "count"},
          {"axis.hit_ratio", ratio(axis_hits, axis_hits + axis_builds),
           "ratio"},
          {"axis.retirements",
           static_cast<double>(st1.cache_retirements - st0.cache_retirements),
           "count"},
          {"axis.bytes", static_cast<double>(st1.hot_cache_bytes), "bytes"},
          {"gkp.us_per_job", span_us("gkp") / jobs, "us"},
          {"matrix.us_per_job", span_us("matrix") / jobs, "us"},
          {"matrix.dense_products", static_cast<double>(rc.matrix.dense_products),
           "count"},
          {"matrix.sparse_products",
           static_cast<double>(rc.matrix.sparse_products), "count"},
          {"matrix.crossovers", static_cast<double>(rc.matrix.repr_crossovers),
           "count"},
          {"matrix.chains_reassociated",
           static_cast<double>(rc.chains_reassociated), "count"},
          {"relcache.hit_ratio",
           ratio(relcache_hits, relcache_hits + relcache_misses), "ratio"},
          {"relcache.evictions", evictions, "count"},
          {"relcache.bytes", static_cast<double>(st1.relation_cache_bytes),
           "bytes"},
          {"nary.us_per_job", span_us("nary") / jobs, "us"},
          {"nary.tuples_per_job",
           ratio(static_cast<double>(rc.nary_tuples),
                 static_cast<double>(rc.jobs_nary)),
           "count"},
          {"stream.open_us", span_us("stream.open") / streams, "us"},
          {"stream.first_batch_us", span_us("stream.next") / streams, "us"},
          {"stream.backing_bytes_max",
           static_cast<double>(rc.stream_backing_bytes_max), "bytes"},
          {"store.fetch_us_per_job", span_us("store.fetch") / jobs, "us"},
          {"store.fault_ins",
           static_cast<double>(st1.doc_reloads - st0.doc_reloads), "count"},
          {"store.reattaches",
           static_cast<double>(st1.doc_reattaches - st0.doc_reattaches),
           "count"},
          {"store.spills", static_cast<double>(st1.doc_spills - st0.doc_spills),
           "count"},
          {"store.resident_docs_max", static_cast<double>(resident_max),
           "count"},
          {"snapshot.save_ms", snap.save_ms, "ms"},
          {"snapshot.open_ms", snap.open_ms, "ms"},
          {"snapshot.segment_bytes", static_cast<double>(snap.bytes), "bytes"},
          {"service.residual_us_per_job", untraced_job_us - job_layer_us / jobs,
           "us"},
          {"admission.submit_us",
           ratio(submit_us, static_cast<double>(a.submit_us.size())), "us"},
          {"admission.rejected", static_cast<double>(rejected), "count"},
          {"trace.overhead_ratio", ratio(traced_s - untraced_s, untraced_s),
           "ratio"},
          {"share.kernels", kernels, "ratio"},
          {"share.nary_stream", nary_stream, "ratio"},
          {"share.store", store_share, "ratio"},
      });
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xpvbench

int main(int argc, char** argv) {
  using namespace xpvbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: xpvbench --workload "
                 "serve_small|relation_full|nary_stream|corpus_spill "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Traffic traffic = MakeTraffic(o.workload, o.seed);
  const std::string out = ".bench_out";
  const std::string work =
      out + "/work-" + std::to_string(static_cast<long>(getpid()));
  fs::create_directories(work);
  const int rc =
      o.trace ? RunTraced(o, traffic, work,
                          out + "/spans-" + WorkloadName(o.workload) +
                              "-seed" + std::to_string(o.seed) + ".jsonl")
              : RunEndToEnd(o, traffic, work);
  fs::remove_all(work);
  return rc;
}
