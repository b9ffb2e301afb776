#include "traffic.h"

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "tree/generators.h"

namespace xpvbench {

using xpv::Rng;
using xpv::engine::ResultShape;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeSmall, Workload::kRelationFull,
                     Workload::kNaryStream, Workload::kCorpusSpill}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeSmall:
      return "serve_small";
    case Workload::kRelationFull:
      return "relation_full";
    case Workload::kNaryStream:
      return "nary_stream";
    case Workload::kCorpusSpill:
      return "corpus_spill";
  }
  return "?";
}

const char* FamilyName(Family f) {
  switch (f) {
    case Family::kBibliography:
      return "bibliography";
    case Family::kRestaurant:
      return "restaurant";
    case Family::kRandom:
      return "random";
    case Family::kPath:
      return "path";
    case Family::kStar:
      return "star";
  }
  return "?";
}

namespace {

/// Attributes per restaurant in every generated guide.
constexpr std::size_t kRestaurantAttributes = 8;

xpv::Tree BuildDocImpl(const DocRecipe& r) {
  Rng rng(r.seed);
  const std::size_t n = std::max<std::size_t>(r.target_nodes, 8);
  switch (r.family) {
    case Family::kBibliography:
      // A book averages 5 nodes (itself, 2 authors, title, and half a
      // year and half a publisher).
      return xpv::BibliographyTree(rng, n / 5);
    case Family::kRestaurant:
      // 1 + 2 mandatory + 6 attributes present with probability 7/8.
      return xpv::RestaurantTree(rng, n * 4 / 33, kRestaurantAttributes);
    case Family::kRandom: {
      xpv::RandomTreeOptions options;
      options.num_nodes = n;
      options.alphabet_size = 3;
      return xpv::RandomTree(rng, options);
    }
    case Family::kPath:
      return xpv::PathTree(n);
    case Family::kStar:
      return xpv::StarTree(n - 1);
  }
  return xpv::PathTree(1);
}

// ------------------------------------------------------ binary templates

struct Template {
  Family family;
  const char* text;
};

/// The binary query templates of serve_small and corpus_spill: about
/// seven per document family, positive and with complement.
const Template kBinaryTemplates[] = {
    {Family::kBibliography, "descendant::book/child::author"},
    {Family::kBibliography, "descendant::book[child::year]/child::title"},
    {Family::kBibliography, "descendant::book[not child::year]"},
    {Family::kBibliography,
     "descendant::book except descendant::book[child::publisher]"},
    {Family::kBibliography,
     "descendant::*[child::author]/following_sibling::*"},
    {Family::kBibliography, "descendant::author/parent::book/child::title"},
    {Family::kBibliography, "descendant::title[preceding_sibling::author]"},
    {Family::kRestaurant, "descendant::restaurant[child::rating]/child::name"},
    {Family::kRestaurant,
     "descendant::restaurant[not child::fax]/child::name"},
    {Family::kRestaurant, "descendant::restaurant/child::*"},
    {Family::kRestaurant, "descendant::price/following_sibling::style"},
    {Family::kRestaurant,
     "descendant::restaurant[child::price and child::style]"},
    {Family::kRestaurant,
     "descendant::restaurant/child::* except "
     "descendant::restaurant/child::phone"},
    {Family::kRandom, "descendant::a/child::b"},
    {Family::kRandom, "descendant::b[child::c]"},
    {Family::kRandom, "descendant::*[not child::a]"},
    {Family::kRandom, "descendant::a/ancestor::c"},
    {Family::kRandom, "descendant::b except descendant::b[parent::a]"},
    {Family::kRandom, "descendant::c/following_sibling::a"},
    {Family::kRandom, "descendant::a[descendant::b]/child::c"},
};
constexpr std::size_t kNumBinaryTemplates =
    sizeof(kBinaryTemplates) / sizeof(kBinaryTemplates[0]);

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

/// `child::name` -> `name` (the abbreviated child step), wherever the
/// step starts a path or follows '/', '[' or a keyword.
std::string AbbreviateChild(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    const bool boundary =
        i == 0 || s[i - 1] == '/' || s[i - 1] == '[' || s[i - 1] == ' ' ||
        s[i - 1] == '(';
    if (boundary && s.compare(i, 7, "child::") == 0) {
      i += 7;
      continue;
    }
    out.push_back(s[i++]);
  }
  return out;
}

/// Syntactic variants of one query: each compiles to the same canonical
/// form, so the query cache serves all but the first from its alias index.
std::vector<std::string> Variants(const std::string& base) {
  std::vector<std::string> out = {
      base,
      ReplaceAll(base, "/", " / "),
      "(" + base + ")",
      ReplaceAll(ReplaceAll(base, "[", "[ "), "]", " ]"),
      AbbreviateChild(base),
  };
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Adds every variant of `base_text` to `t.queries`; returns the index of
/// the first.
std::size_t AddQueryFamily(Traffic& t, const std::string& base_text,
                           Family family, bool nary, bool with_variants) {
  const std::size_t first = t.queries.size();
  const std::size_t base = first;
  std::vector<std::string> texts =
      with_variants ? Variants(base_text) : std::vector<std::string>{base_text};
  for (std::string& text : texts) {
    t.queries.push_back(Query{std::move(text), family, base, nary});
  }
  return first;
}

/// Picks a query of `family` uniformly among bases, then among variants.
struct QueryPicker {
  /// Per family: [first, end) ranges of each base's variants.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> bases =
      std::vector<std::vector<std::pair<std::size_t, std::size_t>>>(5);

  void Add(Family f, std::size_t first, std::size_t end) {
    bases[static_cast<std::size_t>(f)].push_back({first, end});
  }
  std::uint32_t Pick(Rng& rng, Family f) const {
    const auto& list = bases[static_cast<std::size_t>(f)];
    const auto& [first, end] = list[rng.Below(list.size())];
    return static_cast<std::uint32_t>(first + rng.Below(end - first));
  }
};

void AddBinaryTemplates(Traffic& t, QueryPicker& picker) {
  for (std::size_t i = 0; i < kNumBinaryTemplates; ++i) {
    const std::size_t first = AddQueryFamily(t, kBinaryTemplates[i].text,
                                             kBinaryTemplates[i].family,
                                             /*nary=*/false, true);
    picker.Add(kBinaryTemplates[i].family, first, t.queries.size());
  }
}

/// Slots of each family, for family-matched job placement.
std::vector<std::vector<std::uint32_t>> SlotsByFamily(const Traffic& t) {
  std::vector<std::vector<std::uint32_t>> out(5);
  for (std::size_t s = 0; s < t.docs.size(); ++s) {
    out[static_cast<std::size_t>(t.docs[s].family)].push_back(
        static_cast<std::uint32_t>(s));
  }
  return out;
}

ResultShape MonadicShape(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return ResultShape::kCount;
    case 1:
      return ResultShape::kBoolean;
    default:
      return ResultShape::kFromRootSet;
  }
}

Request StreamRequest(std::uint32_t slot, std::uint32_t query) {
  Request r;
  r.kind = Request::Kind::kStream;
  r.jobs.push_back(JobSpec{slot, query, ResultShape::kTupleStream});
  return r;
}

// ----------------------------------------------------------- serve_small

void MakeServeSmall(Traffic& t, Rng& rng) {
  t.config.slices = 10;
  // Host scheduling stalls set the slowest few percent of these
  // millisecond batches and sub-millisecond streams; p90 and p95 stay on
  // the program's side of them.
  t.config.req_tail_percentile = 90.0;
  t.config.page_tail_percentile = 95.0;
  t.config.memory_pass_requests = 256;
  const Family families[] = {Family::kBibliography, Family::kRestaurant,
                             Family::kRandom};
  for (std::size_t s = 0; s < 64; ++s) {
    t.docs.push_back(DocRecipe{families[s % 3], rng.Between(100, 600),
                               rng.Next()});
  }
  QueryPicker picker;
  AddBinaryTemplates(t, picker);
  const auto slots = SlotsByFamily(t);
  auto pick_job = [&](ResultShape shape) {
    const Family f = families[rng.Below(3)];
    const auto& fs = slots[static_cast<std::size_t>(f)];
    return JobSpec{fs[rng.Below(fs.size())], picker.Pick(rng, f), shape};
  };
  // 1024 requests: 768 batches and 256 streams, so a pass holds enough
  // distinct stream jobs for their latency median to settle. Batches of
  // 256 jobs: with 64, each batch did ~0.4 ms of work between thread
  // wake-ups, and when the hypervisor stole CPU time, delayed wake-ups cut
  // throughput by up to 3x from one run to the next.
  for (std::size_t i = 0; i < 1024; ++i) {
    if (i % 4 == 3) {
      const JobSpec j = pick_job(ResultShape::kTupleStream);
      t.requests.push_back(StreamRequest(j.slot, j.query));
      continue;
    }
    Request r;
    for (std::size_t k = 0; k < 256; ++k) {
      r.jobs.push_back(pick_job(rng.Chance(1, 5) ? ResultShape::kFullRelation
                                                 : MonadicShape(rng)));
    }
    t.requests.push_back(std::move(r));
  }
}

// --------------------------------------------------------- relation_full

/// Labels a generated query may test, per family.
std::vector<std::string> FamilyLabels(Family f) {
  switch (f) {
    case Family::kBibliography:
      return {"book", "author", "title", "year", "publisher"};
    case Family::kRestaurant:
      return {"restaurant", "name", "price", "style"};
    case Family::kRandom:
      return {"a", "b", "c"};
    case Family::kPath:
    case Family::kStar:
      return {"a"};
  }
  return {"a"};
}

/// One random location step: axis::test, sometimes with a filter.
std::string RandomStep(Rng& rng, const std::vector<std::string>& labels,
                       bool allow_filter) {
  static const char* kAxes[] = {"child",     "parent",
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

/// A random PPLbin-fragment query in surface syntax: a composition chain
/// of 3-8 steps, with complement from `not` filters and, in a third of
/// the queries, a top-level `except` of a second chain.
std::string RandomBinaryQuery(Rng& rng, Family f) {
  const std::vector<std::string> labels = FamilyLabels(f);
  std::string q = RandomChain(rng, labels, rng.Between(3, 8));
  if (rng.Chance(1, 3)) {
    q = "(" + q + ") except (" + RandomChain(rng, labels, rng.Between(3, 5)) +
        ")";
  }
  return q;
}

void MakeRelationFull(Traffic& t, Rng& rng) {
  t.config.req_tail_percentile = 90.0;
  t.config.page_tail_percentile = 90.0;
  t.config.memory_pass_requests = 32;
  const std::pair<Family, std::size_t> corpus[] = {
      {Family::kPath, 2048},   {Family::kStar, 2048},
      {Family::kRandom, 2560}, {Family::kRandom, 4096},
      {Family::kBibliography, 3072}, {Family::kBibliography, 4096},
  };
  for (const auto& [family, nodes] : corpus) {
    t.docs.push_back(DocRecipe{family, nodes - rng.Below(nodes / 16),
                               rng.Next()});
  }
  // 64 generated queries per family. Batch request k holds one job per
  // document, each with its family's k-th query: job costs span two
  // orders of magnitude, and a batch's latency sums six of them, which
  // keeps the latency median from landing in a gap of that mix. Every
  // other request streams the first page of a short positive chain, so
  // first-page latency is measured on large documents under the kernels'
  // load.
  constexpr std::size_t kPerFamily = 256;
  std::map<Family, std::vector<std::uint32_t>> pool;
  std::map<Family, std::vector<std::uint32_t>> stream_pool;
  for (const DocRecipe& d : t.docs) {
    if (pool.contains(d.family)) continue;
    const std::vector<std::string> labels = FamilyLabels(d.family);
    for (std::size_t i = 0; i < kPerFamily; ++i) {
      pool[d.family].push_back(static_cast<std::uint32_t>(AddQueryFamily(
          t, RandomBinaryQuery(rng, d.family), d.family, false, false)));
    }
    for (std::size_t i = 0; i < kPerFamily; ++i) {
      std::string chain;
      for (std::size_t k = rng.Between(1, 3); k > 0; --k) {
        if (!chain.empty()) chain += "/";
        chain += RandomStep(rng, labels, false);
      }
      stream_pool[d.family].push_back(static_cast<std::uint32_t>(
          AddQueryFamily(t, chain, d.family, false, false)));
    }
  }
  for (std::size_t k = 0; k < kPerFamily; ++k) {
    Request r;
    for (std::size_t s = 0; s < t.docs.size(); ++s) {
      r.jobs.push_back(JobSpec{static_cast<std::uint32_t>(s),
                               pool[t.docs[s].family][k],
                               ResultShape::kFullRelation});
    }
    t.requests.push_back(std::move(r));
    const auto slot = static_cast<std::uint32_t>(k % t.docs.size());
    const auto& streams = stream_pool[t.docs[slot].family];
    t.requests.push_back(StreamRequest(slot, streams[k]));
  }
}

// ----------------------------------------------------------- nary_stream

/// The paper's motivating n-ary query (Section 1): a restaurant's
/// attributes bound to variables, as a conjunction of child tests.
std::string RestaurantQuery(Rng& rng, std::size_t arity) {
  std::vector<std::size_t> attrs;
  for (std::size_t a = 0; a < kRestaurantAttributes; ++a) attrs.push_back(a);
  for (std::size_t i = attrs.size(); i > 1; --i) {
    std::swap(attrs[i - 1], attrs[rng.Below(i)]);
  }
  attrs.resize(arity);
  std::sort(attrs.begin(), attrs.end());
  std::string test;
  for (std::size_t i = 0; i < arity; ++i) {
    if (i > 0) test += " and ";
    test += "child::" + xpv::RestaurantAttributeName(attrs[i]) + "[. is $x" +
            std::to_string(i) + "]";
  }
  return "descendant::restaurant[" + test + "]";
}

const char* kBibNaryQueries[] = {
    "descendant::book[child::author]/$x",
    "descendant::book/child::author/$x",
    "descendant::book[child::year]/$x",
    "$x/child::title",
};

void MakeNaryStream(Traffic& t, Rng& rng) {
  // Streams run on the client while both workers answer allocation-heavy
  // n-ary jobs; their slowest percent is set by host scheduling, p90 not.
  t.config.req_tail_percentile = 90.0;
  t.config.page_tail_percentile = 90.0;
  t.config.memory_pass_requests = 36;
  // Four restaurant guides of 700-1000 nodes and four bibliographies of
  // 500-710 nodes.
  for (std::size_t s = 0; s < 8; ++s) {
    const bool restaurant = s % 2 == 0;
    const std::size_t nodes =
        (restaurant ? 700 + (s / 2) * 100 : 500 + (s / 2) * 70) +
        rng.Below(20);
    t.docs.push_back(DocRecipe{
        restaurant ? Family::kRestaurant : Family::kBibliography, nodes,
        rng.Next()});
  }
  std::vector<std::uint32_t> templates;
  for (std::size_t arity = 2; arity <= 5; ++arity) {
    templates.push_back(static_cast<std::uint32_t>(AddQueryFamily(
        t, RestaurantQuery(rng, arity), Family::kRestaurant, true, false)));
  }
  for (const char* q : kBibNaryQueries) {
    templates.push_back(static_cast<std::uint32_t>(
        AddQueryFamily(t, q, Family::kBibliography, true, false)));
  }
  const auto slots = SlotsByFamily(t);
  // Round k materializes every template (count or full answer set) on
  // the k-th document of its family, in two batches that each pair a
  // costly bibliography template with a cheap one -- per-template costs
  // differ by 100x, and a batch sums them -- then streams the first page
  // of every template. A pass of eight rounds covers every (template,
  // document) pair twice as a job and twice as a stream.
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t half = 0; half < 2; ++half) {
      Request batch;
      for (std::size_t q = half; q < templates.size(); q += 2) {
        const auto& fs =
            slots[static_cast<std::size_t>(t.queries[templates[q]].family)];
        batch.jobs.push_back(JobSpec{fs[k % fs.size()], templates[q],
                                     (q / 2 + k) % 2 == 0
                                         ? ResultShape::kCount
                                         : ResultShape::kFullRelation});
      }
      t.requests.push_back(std::move(batch));
    }
    for (std::size_t q = 0; q < templates.size(); ++q) {
      const auto& fs =
          slots[static_cast<std::size_t>(t.queries[templates[q]].family)];
      t.requests.push_back(
          StreamRequest(fs[(k + q) % fs.size()], templates[q]));
    }
  }
}

// ---------------------------------------------------------- corpus_spill

void MakeCorpusSpill(Traffic& t, Rng& rng) {
  t.config.slices = 10;
  // As on serve_small, p90 for the sub-millisecond batches. About 1% of
  // stream opens wait for a spill write, so p99 of pages would flip
  // between the two modes from seed to seed.
  t.config.req_tail_percentile = 90.0;
  t.config.page_tail_percentile = 95.0;
  t.config.memory_pass_requests = 480;
  t.config.via_snapshot = true;
  t.config.store.max_resident_docs = 16;
  // Hot axis caches pin their document in memory, so the hot budget must
  // sit below the residency budget for spilling to happen at all.
  t.config.store.max_hot_caches = 8;
  const Family families[] = {Family::kBibliography, Family::kRestaurant,
                             Family::kRandom};
  const std::size_t num_docs = 256;
  for (std::size_t s = 0; s < num_docs; ++s) {
    t.docs.push_back(DocRecipe{families[s % 3], rng.Between(200, 300),
                               rng.Next()});
  }
  QueryPicker picker;
  AddBinaryTemplates(t, picker);

  // Zipf(1) document popularity over a seeded permutation of the slots.
  std::vector<std::uint32_t> by_rank(num_docs);
  for (std::size_t i = 0; i < num_docs; ++i) {
    by_rank[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = num_docs; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  }
  std::vector<double> cdf(num_docs);
  double total = 0;
  for (std::size_t i = 0; i < num_docs; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  std::vector<bool> live(num_docs, true);
  auto zipf_slot = [&] {
    for (;;) {
      const double u = rng.NextDouble() * total;
      const std::size_t rank =
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      const std::uint32_t slot = by_rank[std::min(rank, num_docs - 1)];
      if (live[slot]) return slot;
    }
  };
  auto job = [&](ResultShape shape) {
    const std::uint32_t slot = zipf_slot();
    return JobSpec{slot, picker.Pick(rng, t.docs[slot].family), shape};
  };

  // Each removal is followed, 1-16 requests later, by re-inserting the
  // same document (rebuilt from its recipe), so the pass ends with the
  // corpus it started with.
  std::vector<std::pair<std::size_t, std::uint32_t>> pending;  // (due, slot)
  const std::size_t pass = 480;
  for (std::size_t i = 0; i < pass || !pending.empty(); ++i) {
    auto due = std::find_if(pending.begin(), pending.end(),
                            [&](const auto& p) { return p.first <= i; });
    if (due != pending.end() || (i >= pass && !pending.empty())) {
      if (due == pending.end()) due = pending.begin();
      Request r;
      r.kind = Request::Kind::kInsert;
      r.jobs.push_back(JobSpec{due->second, 0, ResultShape::kBoolean});
      live[due->second] = true;
      pending.erase(due);
      t.requests.push_back(std::move(r));
      continue;
    }
    if (i % 20 == 10) {
      Request r;
      r.kind = Request::Kind::kRemove;
      std::uint32_t slot;
      do {
        slot = static_cast<std::uint32_t>(rng.Below(num_docs));
      } while (!live[slot]);
      live[slot] = false;
      pending.push_back({i + 1 + rng.Below(16), slot});
      r.jobs.push_back(JobSpec{slot, 0, ResultShape::kBoolean});
      t.requests.push_back(std::move(r));
      continue;
    }
    if (i % 4 == 3) {
      const JobSpec j = job(ResultShape::kTupleStream);
      t.requests.push_back(StreamRequest(j.slot, j.query));
      continue;
    }
    Request r;
    for (std::size_t k = 0; k < 32; ++k) {
      r.jobs.push_back(job(MonadicShape(rng)));
    }
    t.requests.push_back(std::move(r));
  }
}

}  // namespace

xpv::Tree BuildDoc(const DocRecipe& recipe) { return BuildDocImpl(recipe); }

Traffic MakeTraffic(Workload workload, std::uint64_t seed) {
  Traffic t;
  t.workload = workload;
  Rng rng(seed * 4 + static_cast<std::uint64_t>(workload));
  switch (workload) {
    case Workload::kServeSmall:
      MakeServeSmall(t, rng);
      break;
    case Workload::kRelationFull:
      MakeRelationFull(t, rng);
      break;
    case Workload::kNaryStream:
      MakeNaryStream(t, rng);
      break;
    case Workload::kCorpusSpill:
      MakeCorpusSpill(t, rng);
      break;
  }
  return t;
}

}  // namespace xpvbench
