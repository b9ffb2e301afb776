// Planner calibration: the cost model's price of every full-relation
// route (GKP, dense matrix, sparse matrix) against the measured time of
// that route, forced, on the four document families of the serving
// benchmark's relation_full workload -- path, star, random and
// bibliography trees of 2-4k nodes -- under random 3-8 step PPLbin
// chains with `not` filters and a top-level `except` in a third of them.
//
// Every route runs cold, as the planner prices it: on a fresh store with
// the RelationCache off, so a run builds the axis relations it reads and
// is never timed on another's cached subrelations. Each (document,
// query, route) is timed twice and the faster run kept.
//
// Output: one line per job, then per family and route the median of
// measured / estimated time (1.0 = calibrated) and its spread, and the
// route efficiency sum(min forced) / sum(planner's route) -- 1.0 means the
// planner always picked the fastest route. Last, a refit of the unit
// prices (engine/planner.h kFittedUnitPrices): the prices minimizing the
// squared log error of every timed route's operation counts
// (engine::PriceRoutes) against its measured time. The refit starts from
// the current prices; since the reassociation DP picks associations at
// the current prices, refit until the prices settle.
//
//   bench_planner_calibration [--queries N] [--seed S] [--quiet]
//
// This binary has its own main() and no Google Benchmark fixtures.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/compiled_query.h"
#include "engine/document_store.h"
#include "engine/planner.h"
#include "engine/query_service.h"
#include "tree/generators.h"

namespace xpv {
namespace {

using Clock = std::chrono::steady_clock;
using engine::kFittedUnitPrices;
using engine::OpCounts;
using engine::UnitPrices;

struct Family {
  const char* name;
  std::vector<std::string> labels;
};

const Family kFamilies[] = {
    {"path", {"a"}},
    {"star", {"a"}},
    {"random", {"a", "b", "c"}},
    {"bibliography", {"book", "author", "title", "year", "publisher"}},
};

Tree MakeDoc(std::size_t family, std::size_t nodes, Rng& rng) {
  switch (family) {
    case 0:
      return PathTree(nodes);
    case 1:
      return StarTree(nodes - 1);
    case 2: {
      RandomTreeOptions options;
      options.num_nodes = nodes;
      options.alphabet_size = 3;
      return RandomTree(rng, options);
    }
    default:
      // A book averages 5 nodes.
      return BibliographyTree(rng, nodes / 5);
  }
}

std::string RandomStep(Rng& rng, const std::vector<std::string>& labels,
                       bool allow_filter) {
  static const char* kAxes[] = {"child",      "parent",
                                "descendant", "ancestor",
                                "following_sibling", "preceding_sibling",
                                "self"};
  std::string step = kAxes[rng.Below(7)];
  step += "::";
  step += rng.Chance(1, 3) ? "*" : labels[rng.Below(labels.size())];
  if (allow_filter && rng.Chance(1, 4)) {
    std::string inner = RandomStep(rng, labels, false);
    if (rng.Chance(1, 2)) inner = "not " + inner;
    step += "[" + inner + "]";
  }
  return step;
}

std::string RandomChain(Rng& rng, const std::vector<std::string>& labels,
                        std::size_t len) {
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    if (i > 0) out += "/";
    out += RandomStep(rng, labels, true);
  }
  return out;
}

std::string RandomQuery(Rng& rng, const std::vector<std::string>& labels) {
  std::string q = RandomChain(rng, labels, rng.Between(3, 8));
  if (rng.Chance(1, 3)) {
    q = "(" + q + ") except (" + RandomChain(rng, labels, rng.Between(3, 5)) +
        ")";
  }
  return q;
}

enum Route { kGkp, kDense, kSparse, kAuto, kRoutes };
const char* const kRouteNames[] = {"gkp", "dense", "sparse", "auto"};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Faster of two cold runs of `job` on `tree`, in ms; +inf when the job
/// failed. Each run gets a fresh store, so it builds the axis relations it
/// reads -- as the planner prices it -- and finds no cached relation.
double TimeJob(const Tree& tree, engine::QueryJob job) {
  double best = kInf;
  for (int rep = 0; rep < 2; ++rep) {
    engine::DocumentStoreOptions options;
    options.relation_cache_bytes = 0;
    engine::DocumentStore store(options);
    job.document = store.Insert(Tree(tree));
    engine::QueryService service({.num_threads = 1, .document_store = &store});
    const Clock::time_point t0 = Clock::now();
    std::vector<engine::QueryResult> res = service.EvaluateBatch({job});
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!res[0].status.ok()) return kInf;
    best = std::min(best, ms);
  }
  return best;
}

struct Sample {
  std::size_t family;
  std::size_t nodes;
  double est_ms[3];
  OpCounts ops[3];
  double ms[kRoutes];
};

/// The time prices of `p`: the resident-memory term is not a time, so
/// it is neither compared with measured times nor fitted.
UnitPrices TimePrices(UnitPrices p) {
  p.resident_word = 0.0;
  return p;
}

/// Sum of squared log errors of `prices` over the timed forced routes
/// in [first, last] (a Route range) of the samples `use` accepts, each
/// weighted by its measured time: the planner minimizes total time, so an
/// error on a long job costs more than the same error on a short one.
template <typename Use>
double LogError(const std::vector<Sample>& samples, const UnitPrices& p,
                int first, int last, Use use) {
  double err = 0.0;
  for (const Sample& s : samples) {
    if (!use(s)) continue;
    for (int r = first; r <= last; ++r) {
      if (!std::isfinite(s.ms[r])) continue;
      const double pred = s.ops[r].Ns(TimePrices(p)) * 1e-6;
      const double e =
          std::log(std::max(pred, 1e-6) / std::max(s.ms[r], 1e-6));
      err += s.ms[r] * e * e;
    }
  }
  return err;
}

/// Coordinate descent in log space from the current prices: scale one of
/// `params` at a time while the error falls, then halve the step.
template <typename Error>
void Descend(UnitPrices& p, std::initializer_list<double UnitPrices::*> params,
             Error error) {
  double best = error(p);
  for (double step = 2.0; step > 1.01; step = std::sqrt(step)) {
    for (bool improved = true; improved;) {
      improved = false;
      for (double UnitPrices::*x : params) {
        for (double f : {step, 1.0 / step}) {
          const double old = p.*x;
          p.*x = old * f;
          const double err = error(p);
          if (err < best) {
            best = err;
            improved = true;
          } else {
            p.*x = old;
          }
        }
      }
    }
  }
}

/// The matrix prices fit on every dense and sparse run of the large
/// trees. The per-row price fits on the small trees, where it dominates
/// (time weighting hides it on large ones). GKP's price per visit fits
/// on large path trees only, where its domain estimate is exact: it
/// bounds the domain from above, and elsewhere label structure empties
/// most domains -- a fit there drives the price toward zero.
UnitPrices Fit(const std::vector<Sample>& samples) {
  UnitPrices p = kFittedUnitPrices;
  const auto large = [](const Sample& s) { return s.nodes > 1024; };
  const auto small = [](const Sample& s) { return s.nodes <= 1024; };
  Descend(p,
          {&UnitPrices::word, &UnitPrices::hot_word, &UnitPrices::run},
          [&](const UnitPrices& q) {
            return LogError(samples, q, kDense, kSparse, large);
          });
  Descend(p, {&UnitPrices::row}, [&](const UnitPrices& q) {
    return LogError(samples, q, kDense, kSparse, small);
  });
  Descend(p, {&UnitPrices::visit}, [&](const UnitPrices& q) {
    return LogError(samples, q, kGkp, kGkp, [&](const Sample& s) {
      return s.family == 0 && large(s);
    });
  });
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Quantile by nearest rank, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

int Run(std::size_t queries, std::uint64_t seed, bool quiet) {
  // The relation_full corpus's two sizes per family, and a small one on
  // which per-row kernel overheads show.
  const std::size_t kSizes[] = {512, 2048, 4096};
  Rng rng(seed);
  std::vector<Sample> samples;
  for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
    for (std::size_t nodes : kSizes) {
      const Tree tree = MakeDoc(f, nodes, rng);
      for (std::size_t i = 0; i < queries; ++i) {
        const std::string text = RandomQuery(rng, kFamilies[f].labels);
        auto compiled = engine::CompileQuery(text);
        if (!compiled.ok()) continue;
        const engine::ExecutionPlan plan = engine::PlanQuery(
            **compiled, tree, engine::ResultShape::kFullRelation);
        engine::RouteOps ops;
        engine::PriceRoutes(**compiled, tree,
                            engine::ResultShape::kFullRelation, false, &ops);
        engine::QueryJob job;
        job.query = text;
        job.shape = engine::ResultShape::kFullRelation;
        // Estimated time: the route price without its resident-memory
        // term; +inf where the planner found the route inadmissible.
        const UnitPrices time = TimePrices(kFittedUnitPrices);
        const auto est_ms = [&](double route, const OpCounts& counts) {
          return std::isfinite(route) ? counts.Ns(time) * 1e-6 : kInf;
        };
        Sample s{f,
                 tree.size(),
                 {est_ms(plan.routes.gkp, ops.gkp),
                  est_ms(plan.routes.dense, ops.dense),
                  est_ms(plan.routes.sparse, ops.sparse)},
                 {ops.gkp, ops.dense, ops.sparse},
                 {kInf, kInf, kInf, kInf}};
        s.ms[kAuto] = TimeJob(tree, job);
        if ((*compiled)->positive) {
          engine::QueryJob gkp = job;
          gkp.engine_override = engine::EnginePlan::kGkpPositive;
          s.ms[kGkp] = TimeJob(tree, gkp);
        }
        for (Route r : {kDense, kSparse}) {
          engine::QueryJob forced = job;
          forced.engine_override = engine::EnginePlan::kMatrixGeneral;
          forced.repr_override =
              r == kDense ? MatrixRepr::kDense : MatrixRepr::kSparse;
          s.ms[r] = TimeJob(tree, forced);
        }
        if (!quiet) {
          std::printf("%-12s n=%-5zu est gkp=%-8.3g dense=%-8.3g "
                      "sparse=%-8.3g | ms gkp=%-8.3g dense=%-8.3g "
                      "sparse=%-8.3g auto=%-8.3g | %s | %s\n",
                      kFamilies[f].name, tree.size(), s.est_ms[kGkp],
                      s.est_ms[kDense], s.est_ms[kSparse], s.ms[kGkp],
                      s.ms[kDense], s.ms[kSparse], s.ms[kAuto],
                      plan.DebugString().c_str(), text.c_str());
        }
        samples.push_back(s);
      }
    }
  }

  // Per family and route: measured / estimated time. Only routes the
  // planner priced finite enter the ratio; a route it priced infinite
  // (inadmissible) is still timed when it runs, for the efficiency sum.
  std::printf("\n%-12s %-7s %5s %10s %10s %10s %10s\n", "family", "route",
              "jobs", "est_ms", "meas_ms", "median_q", "q_p10-p90");
  double sum_auto = 0.0;
  double sum_best = 0.0;
  std::map<int, std::vector<double>> all_ratios;
  for (std::size_t f = 0; f <= std::size(kFamilies); ++f) {
    const bool total = f == std::size(kFamilies);
    for (int r = kGkp; r <= kSparse; ++r) {
      std::vector<double> ratios;
      double est = 0.0;
      double meas = 0.0;
      for (const Sample& s : samples) {
        if (!total && s.family != f) continue;
        if (!std::isfinite(s.est_ms[r]) || !std::isfinite(s.ms[r])) continue;
        ratios.push_back(s.ms[r] / std::max(s.est_ms[r], 1e-6));
        est += s.est_ms[r];
        meas += s.ms[r];
      }
      if (ratios.empty()) continue;
      std::printf("%-12s %-7s %5zu %10.1f %10.1f %10.3f %5.2f-%-5.2f\n",
                  total ? "all" : kFamilies[f].name, kRouteNames[r],
                  ratios.size(), est, meas, Median(ratios),
                  Quantile(ratios, 0.1), Quantile(ratios, 0.9));
    }
  }
  for (const Sample& s : samples) {
    const double best = std::min({s.ms[kGkp], s.ms[kDense], s.ms[kSparse]});
    if (!std::isfinite(best) || !std::isfinite(s.ms[kAuto])) continue;
    sum_best += best;
    sum_auto += s.ms[kAuto];
  }
  std::printf("\nroute_efficiency %.3f (sum min forced %.1f ms / sum planner "
              "%.1f ms over %zu jobs)\n",
              sum_auto > 0 ? sum_best / sum_auto : 0.0, sum_best, sum_auto,
              samples.size());
  const UnitPrices fit = Fit(samples);
  const auto matrix_error = [&](const UnitPrices& p) {
    return LogError(samples, p, kDense, kSparse,
                    [](const Sample&) { return true; });
  };
  const auto print = [&](const char* name, const UnitPrices& p) {
    std::printf("matrix log error %7.1f at %-17s {.visit = %.3g, .word = "
                "%.3g, .hot_word = %.3g, .run = %.3g, .row = %.3g}\n",
                matrix_error(p), name, p.visit, p.word, p.hot_word, p.run,
                p.row);
  };
  print("kFittedUnitPrices", kFittedUnitPrices);
  print("refit", fit);
  return 0;
}

}  // namespace
}  // namespace xpv

int main(int argc, char** argv) {
  std::size_t queries = 16;
  std::uint64_t seed = 1;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries N] [--seed S] [--quiet]\n", argv[0]);
      return 2;
    }
  }
  return xpv::Run(queries, seed, quiet);
}
