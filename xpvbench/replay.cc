#include "replay.h"

#include <cstdio>
#include <set>

#include "digest.h"
#include "engine/planner.h"
#include "hcl/answer.h"
#include "ppl/gkp_engine.h"
#include "traffic.h"
#include "tree/axes.h"

namespace xpvbench {

using xpv::BitVector;
using xpv::engine::EnginePlan;
using xpv::engine::ExecutionPlan;
using xpv::engine::QueryResult;
using xpv::engine::ResultShape;

// ---------------------------------------------------------------- Tracer

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::Begin(const char* name, std::uint32_t request) {
  const std::int64_t now = NowNs();
  std::int32_t stored = -1;
  if (spans_.size() < kMaxStoredSpans) {
    // Spans nest, so a stored span's parent was stored before it.
    const std::int32_t parent = open_.empty() ? -1 : open_.back().stored;
    spans_.push_back(Span{name, now, now, parent, request});
    stored = static_cast<std::int32_t>(spans_.size() - 1);
  }
  open_.push_back(Open{name, now, 0, stored});
  ++spans_total_;
}

void Tracer::End() {
  const std::int64_t now = NowNs();
  const Open o = open_.back();
  open_.pop_back();
  const std::int64_t duration = now - o.start_ns;
  self_ns_[o.name] += duration - o.child_ns;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (o.stored >= 0) spans_[static_cast<std::size_t>(o.stored)].end_ns = now;
}

std::map<std::string, double> Tracer::SelfMicros() const {
  std::map<std::string, double> out;
  for (const auto& [name, ns] : self_ns_) {
    out[name] += static_cast<double>(ns) / 1000.0;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

const char* LayerOf(const std::string& name) {
  static const std::map<std::string, const char*> kLayers = {
      {"store.fetch", "engine.document_store"},
      {"store.insert", "engine.document_store"},
      {"store.remove", "engine.document_store"},
      {"compile", "engine.query_cache"},
      {"plan", "engine.planner"},
      {"axis", "tree.axis_cache"},
      {"gkp", "ppl.gkp_engine"},
      {"matrix", "ppl.matrix_engine"},
      {"nary", "hcl.answer"},
      {"stream.open", "engine.query_stream"},
      {"stream.next", "engine.query_stream"},
      {"stream.close", "engine.query_stream"},
      {"payload", "engine.query_service"},
      {"snapshot.save", "engine.snapshot"},
      {"snapshot.open", "engine.snapshot"},
  };
  auto it = kLayers.find(name);
  return it != kLayers.end() ? it->second : "bench.harness";
}

// -------------------------------------------------------------- Replayer

namespace {

void CollectAxes(const xpv::ppl::PplBinExpr& p, std::set<xpv::Axis>& out) {
  if (p.kind == xpv::ppl::PplBinKind::kStep) out.insert(p.axis);
  if (p.left != nullptr) CollectAxes(*p.left, out);
  if (p.right != nullptr) CollectAxes(*p.right, out);
}

/// QueryService's monadic payload for `shape` from a from-root set.
void FinishMonadic(QueryResult& r, ResultShape shape, BitVector image) {
  switch (shape) {
    case ResultShape::kBoolean:
      r.boolean = image.Any();
      return;
    case ResultShape::kCount:
      r.count = image.Count();
      return;
    default:
      r.from_root = std::move(image);
      return;
  }
}

void Accumulate(xpv::ppl::MatrixEngineStats& into,
                const xpv::ppl::MatrixEngineStats& s) {
  into.dense_products += s.dense_products;
  into.sparse_products += s.sparse_products;
  into.repr_crossovers += s.repr_crossovers;
  into.subrel_hits += s.subrel_hits;
  into.subrel_misses += s.subrel_misses;
}

}  // namespace

std::uint64_t Replayer::Job(xpv::engine::DocumentId id,
                            const std::string& text, ResultShape shape,
                            std::uint32_t request) {
  using Scope = Tracer::Scope;
  ++counts_.jobs;
  QueryResult result;
  bool nary = false;
  auto finish = [&] { return DigestResult(result, shape, nary); };

  xpv::engine::DocumentPtr doc;
  std::shared_ptr<xpv::AxisCache> cache;
  std::shared_ptr<xpv::engine::PlanMemo> memo;
  std::shared_ptr<xpv::ppl::RelationCache> relations;
  {
    Scope s(tracer_, "store.fetch", request);
    xpv::Result<xpv::engine::DocumentPtr> fetched = store_.Fetch(id);
    if (!fetched.ok()) {
      result.status = fetched.status();
      return finish();
    }
    doc = std::move(fetched).value();
    cache = store_.AxisCacheFor(id);
    memo = store_.PlanMemoFor(id);
    relations = store_.RelationCacheFor(id);
  }
  if (cache == nullptr) cache = std::make_shared<xpv::AxisCache>(doc->tree());
  const xpv::Tree& t = doc->tree();

  std::shared_ptr<const xpv::engine::CompiledQuery> q;
  {
    Scope s(tracer_, "compile", request);
    auto compiled = cache_.GetOrCompile(text);
    if (!compiled.ok()) {
      result.status = compiled.status();
      return finish();
    }
    q = std::move(compiled).value();
  }
  nary = q->hcl != nullptr;

  ExecutionPlan plan;
  {
    Scope s(tracer_, "plan", request);
    plan = memo != nullptr
               ? memo->GetOrCompute(q->canonical_text, shape,
                                    [&] { return PlanQuery(*q, t, shape); })
               : PlanQuery(*q, t, shape);
  }
  result.plan = plan;

  const xpv::ppl::PplBinExpr* pplbin = q->pplbin.get();
  if (plan.engine == EnginePlan::kMatrixGeneral &&
      plan.reassociated != nullptr) {
    pplbin = plan.reassociated.get();
    counts_.chains_reassociated += plan.chains_reassociated;
  }

  switch (plan.engine) {
    case EnginePlan::kGkpPositive: {
      ++counts_.jobs_gkp;
      if (plan.row_restricted) {
        xpv::Result<BitVector> image = BitVector();
        {
          Scope s(tracer_, "gkp", request);
          xpv::ppl::GkpEngine engine(cache);
          engine.set_relation_cache(relations);
          image = engine.FromRoot(*q->pplbin);
        }
        if (!image.ok()) {
          result.status = image.status();
          return finish();
        }
        {
          Scope s(tracer_, "payload", request);
          FinishMonadic(result, plan.shape, std::move(image).value());
        }
        return finish();
      }
      xpv::Result<xpv::BitMatrix> rel = xpv::BitMatrix();
      {
        Scope s(tracer_, "gkp", request);
        xpv::ppl::GkpEngine engine(cache);
        engine.set_relation_cache(relations);
        rel = engine.Relation(*q->pplbin);
      }
      if (!rel.ok()) {
        result.status = rel.status();
        return finish();
      }
      Scope s(tracer_, "payload", request);
      result.relation = std::move(rel).value();
      break;
    }
    case EnginePlan::kMatrixGeneral: {
      if (plan.repr == xpv::MatrixRepr::kDense) {
        ++counts_.jobs_matrix_dense;
      } else {
        ++counts_.jobs_matrix_sparse;
      }
      // The axis relations the dense or interval-backed leaves read.
      if (!plan.row_restricted &&
          (plan.repr == xpv::MatrixRepr::kDense || cache->interval_backed())) {
        Scope s(tracer_, "axis", request);
        std::set<xpv::Axis> axes;
        CollectAxes(*pplbin, axes);
        for (xpv::Axis axis : axes) cache->Matrix(axis);
      }
      xpv::ppl::MatrixEngine engine(cache, xpv::ppl::MultiplyMode::kBitPacked,
                                    plan.repr);
      engine.set_relation_cache(relations);
      if (plan.row_restricted) {
        xpv::Result<BitVector> image = BitVector();
        {
          Scope s(tracer_, "matrix", request);
          image = engine.EvaluateFromRoot(*pplbin);
        }
        Accumulate(counts_.matrix, engine.stats());
        if (!image.ok()) {
          result.status = image.status();
          return finish();
        }
        {
          Scope s(tracer_, "payload", request);
          FinishMonadic(result, plan.shape, std::move(image).value());
        }
        return finish();
      }
      xpv::Result<xpv::ppl::AnyMatrix> rel = xpv::ppl::AnyMatrix();
      {
        Scope s(tracer_, "matrix", request);
        rel = engine.EvaluateAny(*pplbin);
      }
      Accumulate(counts_.matrix, engine.stats());
      if (!rel.ok()) {
        result.status = rel.status();
        return finish();
      }
      Scope s(tracer_, "payload", request);
      xpv::ppl::AnyMatrix m = std::move(rel).value();
      if (m.is_dense()) {
        result.relation = std::move(m).TakeDense();
      } else {
        xpv::Result<xpv::BitMatrix> dense = m.ToDense();
        if (!dense.ok()) {
          result.status = dense.status();
          return finish();
        }
        result.relation = std::move(dense).value();
      }
      break;
    }
    case EnginePlan::kNaryAnswer: {
      ++counts_.jobs_nary;
      xpv::Result<xpv::xpath::TupleSet> answered = xpv::xpath::TupleSet();
      {
        Scope s(tracer_, "nary", request);
        xpv::hcl::QueryAnswerer answerer(t, *q->hcl, q->tuple_vars, {}, cache);
        xpv::Status prepared = answerer.Prepare();
        answered = prepared.ok() ? answerer.Answer()
                                 : xpv::Result<xpv::xpath::TupleSet>(prepared);
      }
      if (!answered.ok()) {
        result.status = answered.status();
        return finish();
      }
      {
        Scope s(tracer_, "payload", request);
        xpv::xpath::TupleSet tuples = std::move(answered).value();
        counts_.nary_tuples += tuples.size();
        switch (plan.shape) {
          case ResultShape::kBoolean:
            result.boolean = !tuples.empty();
            break;
          case ResultShape::kCount:
            result.count = tuples.size();
            break;
          default:
            result.tuples = std::move(tuples);
            break;
        }
      }
      return finish();
    }
  }
  {
    Scope s(tracer_, "payload", request);
    BitVector root_only(t.size());
    root_only.Set(t.root());
    result.from_root = result.relation.ImageOf(root_only);
  }
  return finish();
}

std::uint64_t Replayer::Stream(xpv::engine::DocumentId id,
                               const std::string& text,
                               std::uint32_t request) {
  using Scope = Tracer::Scope;
  ++counts_.streams;
  xpv::Result<xpv::engine::QueryStream> opened =
      xpv::Status::Internal("not opened");
  {
    Scope s(tracer_, "stream.open", request);
    opened = streams_.OpenStream(id, text);
  }
  if (!opened.ok()) return DigestPage({}) ^ 1;
  xpv::engine::QueryStream stream = std::move(opened).value();
  xpv::Result<std::vector<xpv::xpath::NodeTuple>> page =
      std::vector<xpv::xpath::NodeTuple>();
  {
    Scope s(tracer_, "stream.next", request);
    page = stream.NextBatch(kStreamPage);
  }
  counts_.stream_backing_bytes_max = std::max(
      counts_.stream_backing_bytes_max, stream.stats().backing_bytes);
  {
    Scope s(tracer_, "stream.close", request);
    stream.Close();
  }
  if (!page.ok()) return DigestPage({}) ^ 1;
  return DigestPage(*page);
}

}  // namespace xpvbench
