#include "engine/query_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "hcl/answer.h"
#include "ppl/gkp_engine.h"
#include "ppl/matrix_engine.h"

namespace xpv::engine {

namespace internal {

/// A document resolved once per distinct id per batch; the cache/memo are
/// the store's persistent ones, so repeats across batches hit.
struct ResolvedDoc {
  DocumentPtr doc;
  std::shared_ptr<AxisCache> cache;
  std::shared_ptr<PlanMemo> plans;
  std::shared_ptr<ppl::RelationCache> relations;
  /// Why resolution failed when doc == nullptr: the store Fetch's typed
  /// status (kNotFound, or kDataLoss when a spilled segment is corrupt).
  Status fetch_status;
};

/// Everything one batch needs from submission to completion. Shared by
/// the submitting caller (through BatchHandle), the dispatcher, and the
/// pool workers; the last finisher marks it done.
struct BatchState {
  // Submission.
  std::vector<QueryJob> owned_jobs;        // TrySubmit path owns its jobs
  const std::vector<QueryJob>* jobs = nullptr;  // always valid during run
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::atomic<bool> cancelled{false};
  bool admitted = false;  // went through TrySubmit (admission counters)

  // Prepared run state (PrepareRun).
  std::vector<QueryResult> results;
  std::unordered_map<const Tree*, std::shared_ptr<AxisCache>> tree_caches;
  /// Tree*-addressed jobs get a per-batch subrelation cache per distinct
  /// tree (the store's persistent per-document caches cover id-addressed
  /// jobs): jobs of one batch sharing a caller-owned tree still evaluate
  /// each distinct subrelation once.
  std::unordered_map<const Tree*, std::shared_ptr<ppl::RelationCache>>
      tree_relations;
  /// Per-job compiled queries, filled by PrepareRun's CSE pass (empty
  /// for doomed or single-job batches): workers reuse them instead of
  /// re-consulting the QueryCache, so each job costs one cache lookup
  /// per batch no matter which path resolved it.
  std::vector<std::optional<Result<std::shared_ptr<const CompiledQuery>>>>
      compiled;
  std::unordered_map<DocumentId, ResolvedDoc> docs;
  /// Job indices grouped by resident store shard; the last group holds
  /// Tree*-addressed and malformed jobs (no shard affinity).
  std::vector<std::vector<std::size_t>> groups;
  /// One claim cursor per group; workers fetch_add to claim job slots.
  std::unique_ptr<std::atomic<std::size_t>[]> cursors;
  std::atomic<std::size_t> remaining_workers{0};

  // Completion.
  Mutex mu;
  CondVar cv;
  bool done XPV_GUARDED_BY(mu) = false;
};

}  // namespace internal

using internal::BatchState;
using internal::ResolvedDoc;

namespace {

/// Derives the monadic payload from a from-root node set.
void FinishMonadic(QueryResult& result, ResultShape shape, BitVector image) {
  switch (shape) {
    case ResultShape::kFullRelation:
    case ResultShape::kFromRootSet:
    case ResultShape::kTupleStream:  // unreachable: rejected in RunJob
      result.from_root = std::move(image);
      return;
    case ResultShape::kBoolean:
      result.boolean = image.Any();
      return;
    case ResultShape::kCount:
      result.count = image.Count();
      return;
  }
}

}  // namespace

// ----------------------------------------------------------- BatchHandle

bool BatchHandle::done() const {
  if (state_ == nullptr) return false;
  MutexLock lock(state_->mu);
  return state_->done;
}

std::vector<QueryResult> BatchHandle::Wait() {
  if (state_ == nullptr) return {};
  MutexLock lock(state_->mu);
  while (!state_->done) state_->cv.Wait(lock);
  return std::move(state_->results);
}

void BatchHandle::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------- QueryService

QueryService::QueryService(QueryServiceOptions options)
    : num_threads_(options.num_threads),
      store_(options.document_store),
      max_queued_batches_(options.max_queued_batches),
      max_inflight_batches_(options.max_inflight_batches) {
  if (num_threads_ == 0) {
    num_threads_ = std::thread::hardware_concurrency();
    if (num_threads_ == 0) num_threads_ = 1;
  }
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

QueryService::~QueryService() {
  {
    MutexLock lock(adm_->mu);
    stopping_ = true;
  }
  adm_->cv.NotifyAll();
  // The dispatcher drains the queue before exiting (accepted batches are
  // never lost); pool_'s destructor then joins the workers, finishing any
  // batch still in flight before the admission state is destroyed.
  dispatcher_.join();
}

QueryResult QueryService::Evaluate(const Tree& tree, std::string_view query,
                                   ResultShape shape) {
  QueryResult result = RunJob(&tree, std::string(query), shape, std::nullopt,
                              std::nullopt, /*force_parse_order=*/false,
                              std::make_shared<AxisCache>(tree), nullptr,
                              nullptr);
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

QueryResult QueryService::Evaluate(DocumentId document, std::string_view query,
                                   ResultShape shape) {
  QueryResult result;
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  if (store_ == nullptr) {
    result.status = Status::InvalidArgument(
        "job addresses a DocumentId but the service has no DocumentStore");
    return result;
  }
  // Fetch (not Get): a spilled document faults back in transparently, and
  // a genuinely failed fault-in (corrupt or vanished segment) surfaces
  // its typed kDataLoss / kNotFound instead of a generic "unknown id".
  Result<DocumentPtr> fetched = store_->Fetch(document);
  if (!fetched.ok()) {
    result.status = fetched.status();
    return result;
  }
  DocumentPtr doc = std::move(fetched).value();
  return RunJob(&doc->tree(), std::string(query), shape, std::nullopt,
                std::nullopt, /*force_parse_order=*/false,
                store_->AxisCacheFor(document),
                store_->PlanMemoFor(document),
                store_->RelationCacheFor(document));
}

QueryResult QueryService::RunJob(
    const Tree* tree, const std::string& query, ResultShape shape,
    const std::optional<EnginePlan>& engine_override,
    const std::optional<MatrixRepr>& repr_override, bool force_parse_order,
    const std::shared_ptr<AxisCache>& tree_cache,
    const std::shared_ptr<PlanMemo>& plan_memo,
    const std::shared_ptr<ppl::RelationCache>& relations,
    const Result<std::shared_ptr<const CompiledQuery>>* precompiled,
    CancelToken cancel) {
  QueryResult result;
  if (shape == ResultShape::kTupleStream) {
    result.status = Status::InvalidArgument(
        "the tuple-stream shape is served by OpenStream, not batch jobs");
    return result;
  }
  if (tree == nullptr || tree->empty()) {
    result.status = Status::InvalidArgument("job has no tree");
    return result;
  }
  std::optional<Result<std::shared_ptr<const CompiledQuery>>> own_compiled;
  if (precompiled == nullptr) {
    own_compiled.emplace(cache_.GetOrCompile(query));
    precompiled = &*own_compiled;
  }
  const Result<std::shared_ptr<const CompiledQuery>>& compiled = *precompiled;
  if (!compiled.ok()) {
    result.status = compiled.status();
    return result;
  }
  const CompiledQuery& q = **compiled;
  const Tree& t = *tree;

  // Plan stage: per (compiled query, tree, shape), memoized per document.
  // Forced engines and forced representations (tests, ablations) bypass
  // the memo so a forced run never pollutes the planner's cache.
  if (repr_override.has_value() && q.pplbin == nullptr) {
    result.status = Status::InvalidArgument(
        "representation override applies only to binary (PPLbin) queries: " +
        q.text);
    return result;
  }
  ExecutionPlan plan;
  if (engine_override.has_value()) {
    if (!q.Admits(*engine_override)) {
      result.status = Status::InvalidArgument(
          "engine override '" +
          std::string(EnginePlanName(*engine_override)) +
          "' is not admissible for query: " + q.text);
      return result;
    }
    plan = PlanQuery(q, t, shape, engine_override, 0, repr_override,
                     force_parse_order);
  } else if (repr_override.has_value() || force_parse_order) {
    plan = PlanQuery(q, t, shape, {}, 0, repr_override, force_parse_order);
  } else if (plan_memo != nullptr) {
    // Memoized under the canonical text: syntactic variants of one query
    // share one plan entry (mirroring the QueryCache's canonical keying).
    plan = plan_memo->GetOrCompute(
        q.canonical_text, shape, [&] { return PlanQuery(q, t, shape); });
  } else {
    plan = PlanQuery(q, t, shape);
  }
  result.plan = plan;

  // Dense ceiling: a plan that must materialize an n x n BitMatrix is
  // refused on oversized trees -- a clean error instead of an O(n^2)-bit
  // allocation (~125 GB at 1M nodes). Monadic shapes on such trees keep
  // working through interval-backed axis relations.
  if (t.size() > BitMatrix::kMaxDenseNodes &&
      PlanRequiresDenseRelation(q, plan)) {
    result.status = Status::ResourceExhausted(
        "plan " + plan.DebugString() + " requires a dense relation on a " +
        std::to_string(t.size()) + "-node tree (dense ceiling " +
        std::to_string(BitMatrix::kMaxDenseNodes) +
        " nodes); request a monadic result shape instead");
    return result;
  }

  const std::shared_ptr<AxisCache> cache =
      tree_cache != nullptr ? tree_cache : std::make_shared<AxisCache>(t);

  // Executed matrix plans whose chains the DP re-parenthesized evaluate
  // the reassociated form -- same factor order, cheapest association.
  const ppl::PplBinExpr* pplbin = q.pplbin.get();
  if (plan.engine == EnginePlan::kMatrixGeneral &&
      plan.reassociated != nullptr) {
    pplbin = plan.reassociated.get();
    chains_reassociated_.fetch_add(plan.chains_reassociated,
                                   std::memory_order_relaxed);
  }

  // Execute stage: dispatch through the plan.
  switch (plan.engine) {
    case EnginePlan::kGkpPositive: {
      ppl::GkpEngine engine(cache);
      engine.set_relation_cache(relations);
      if (plan.row_restricted) {
        Result<BitVector> image = engine.FromRoot(*q.pplbin);
        if (!image.ok()) {
          result.status = image.status();
          return result;
        }
        FinishMonadic(result, plan.shape, std::move(image).value());
        return result;
      }
      Result<BitMatrix> rel = engine.Relation(*q.pplbin);
      if (engine.subrel_hits() != 0) {
        subrel_hits_.fetch_add(engine.subrel_hits(),
                               std::memory_order_relaxed);
      }
      if (engine.subrel_misses() != 0) {
        subrel_misses_.fetch_add(engine.subrel_misses(),
                                 std::memory_order_relaxed);
      }
      if (!rel.ok()) {
        result.status = rel.status();
        return result;
      }
      result.relation = std::move(rel).value();
      break;
    }
    case EnginePlan::kMatrixGeneral: {
      ppl::MatrixEngine engine(cache, ppl::MultiplyMode::kBitPacked,
                               plan.repr);
      engine.set_relation_cache(relations);
      if (plan.row_restricted) {
        Result<BitVector> image = engine.EvaluateFromRoot(*pplbin);
        AccumulateEngineStats(engine.stats());
        if (!image.ok()) {
          result.status = image.status();
          return result;
        }
        FinishMonadic(result, plan.shape, std::move(image).value());
        return result;
      }
      Result<BoolMatrix> rel = engine.EvaluateAny(*pplbin);
      AccumulateEngineStats(engine.stats());
      if (!rel.ok()) {
        result.status = rel.status();
        return result;
      }
      BoolMatrix m = std::move(rel).value();
      if (m.is_dense()) {
        result.relation = std::move(m).TakeDense();
        break;
      }
      if (t.size() <= BitMatrix::kMaxDenseNodes) {
        // Under the dense ceiling the payload contract is a dense
        // BitMatrix regardless of the representation the engine composed
        // in -- keeping results byte-identical across repr overrides. The
        // densification cannot exceed the ceiling we just checked.
        Result<BitMatrix> dense = m.ToDense();
        if (!dense.ok()) {
          result.status = dense.status();
          return result;
        }
        result.relation = std::move(dense).value();
        break;
      }
      // Above the ceiling no dense n x n form can exist: hand the caller
      // the run-list relation and derive from_root from it directly.
      BitVector root_only(t.size());
      root_only.Set(t.root());
      result.from_root = m.ImageOf(root_only);
      result.relation_sparse = std::make_shared<const SparseBoolMatrix>(
          std::move(m).TakeSparse());
      return result;
    }
    case EnginePlan::kNaryAnswer: {
      // The one potentially long-running engine: thread the batch's
      // cancel token into it so an in-flight n-ary evaluation observes
      // BatchHandle::Cancel and expired deadlines mid-run.
      hcl::AnswerOptions answer_options;
      answer_options.cancel = cancel;
      answer_options.relation_cache = relations;
      hcl::QueryAnswerer answerer(t, *q.hcl, q.tuple_vars, answer_options,
                                  cache);
      Status prepared = answerer.Prepare();
      if (!prepared.ok()) {
        result.status = prepared;
        return result;
      }
      Result<xpath::TupleSet> answered = answerer.Answer();
      if (!answered.ok()) {
        result.status = answered.status();
        return result;
      }
      xpath::TupleSet tuples = std::move(answered).value();
      switch (plan.shape) {
        case ResultShape::kFullRelation:
        case ResultShape::kFromRootSet:
        case ResultShape::kTupleStream:  // unreachable: rejected above
          result.tuples = std::move(tuples);
          break;
        case ResultShape::kBoolean:
          result.boolean = !tuples.empty();
          break;
        case ResultShape::kCount:
          result.count = tuples.size();
          break;
      }
      return result;
    }
  }

  // Full binary relation computed; plan.shape is kFullRelation here --
  // every monadic binary plan is row-restricted and returned inside the
  // switch above.
  BitVector root_only(t.size());
  root_only.Set(t.root());
  result.from_root = result.relation.ImageOf(root_only);
  return result;
}

// ------------------------------------------------- batch run machinery

void QueryService::PrepareRun(BatchState& run) {
  const std::vector<QueryJob>& jobs = *run.jobs;
  run.results.resize(jobs.size());

  // A batch already cancelled or past its deadline will skip every job
  // (cancellation is sticky and deadlines are monotone, so RunOne is
  // guaranteed to observe the same condition): don't resolve documents or
  // build axis caches for it -- resolution would churn the store's LRU
  // and could retire hot caches that live batches are using.
  const bool doomed =
      run.cancelled.load(std::memory_order_relaxed) ||
      (run.deadline.has_value() &&
       std::chrono::steady_clock::now() > *run.deadline);

  // Resolve every distinct document once (touching the store's LRU once
  // per batch, not once per job) and build one shared axis cache per
  // distinct raw tree.
  if (!doomed) {
    for (const QueryJob& job : jobs) {
      if (job.document != kNoDocument && job.tree != nullptr) {
        continue;  // malformed; rejected per-job below without touching
                   // the store (resolution would churn its LRU)
      }
      if (job.document != kNoDocument) {
        if (store_ != nullptr && !run.docs.contains(job.document)) {
          ResolvedDoc resolved;
          Result<DocumentPtr> fetched = store_->Fetch(job.document);
          if (fetched.ok()) {
            resolved.doc = std::move(fetched).value();
            resolved.cache = store_->AxisCacheFor(job.document);
            resolved.plans = store_->PlanMemoFor(job.document);
            resolved.relations = store_->RelationCacheFor(job.document);
          } else {
            // Every job addressing this document reports the fault-in's
            // typed status (kDataLoss on corruption) instead of a generic
            // not-found.
            resolved.fetch_status = fetched.status();
          }
          run.docs.emplace(job.document, std::move(resolved));
        }
      } else if (job.tree != nullptr &&
                 !run.tree_caches.contains(job.tree)) {
        run.tree_caches.emplace(job.tree,
                                std::make_shared<AxisCache>(*job.tree));
        run.tree_relations.emplace(job.tree,
                                   std::make_shared<ppl::RelationCache>());
      }
    }
  }

  // Shard-affine grouping: jobs resident on one store shard share that
  // shard's hot caches, so a worker draining one group touches one
  // shard's working set. The extra tail group collects Tree*-addressed
  // and malformed jobs.
  const std::size_t num_shard_groups =
      store_ != nullptr ? store_->num_shards() : 0;
  run.groups.assign(num_shard_groups + 1, {});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const QueryJob& job = jobs[i];
    const bool sharded = store_ != nullptr &&
                         job.document != kNoDocument && job.tree == nullptr;
    const std::size_t g =
        sharded ? store_->shard_of(job.document) : num_shard_groups;
    run.groups[g].push_back(i);
  }
  // Batch-level common-subexpression ordering: within each group, jobs
  // on one document sharing one canonical query run back to back, so the
  // first evaluates each distinct subrelation and the rest hit the
  // document's RelationCache while the entries are hottest (LRU eviction
  // between distant duplicates can otherwise lose the reuse under a
  // tight byte budget). Warming the compile cache here also makes the
  // canonical text available for the sort; workers then hit it. Results
  // are order-independent (each job writes only its own slot), so this
  // reordering never changes output, only reuse.
  if (!doomed && jobs.size() > 1) {
    run.compiled.reserve(jobs.size());
    std::vector<std::string> keys(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const QueryJob& job = jobs[i];
      run.compiled.emplace_back(cache_.GetOrCompile(job.query));
      const auto& compiled = *run.compiled.back();
      keys[i] = std::to_string(job.document);
      keys[i].push_back('\x1f');
      keys[i] += compiled.ok() ? (*compiled)->canonical_text : job.query;
    }
    for (std::vector<std::size_t>& group : run.groups) {
      std::stable_sort(group.begin(), group.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                       });
    }
  }

  run.cursors =
      std::make_unique<std::atomic<std::size_t>[]>(run.groups.size());
  for (std::size_t g = 0; g < run.groups.size(); ++g) {
    run.cursors[g].store(0, std::memory_order_relaxed);
  }
}

void QueryService::RunOne(BatchState& run, std::size_t i) {
  const QueryJob& job = (*run.jobs)[i];
  // Admission checks between jobs: a cancelled or expired batch stops
  // starting new jobs but never abandons its results vector -- skipped
  // slots carry an explanatory status.
  if (run.cancelled.load(std::memory_order_relaxed)) {
    run.results[i].status =
        Status::Cancelled("batch cancelled before this job started");
    jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (run.deadline.has_value() &&
      std::chrono::steady_clock::now() > *run.deadline) {
    run.results[i].status = Status::DeadlineExceeded(
        "batch deadline passed before this job started");
    jobs_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Started jobs carry the batch's cancel token into the engine, so a
  // long-running n-ary job stops mid-run instead of running to
  // completion; attribute the slot to the counter matching its outcome.
  const CancelToken token(&run.cancelled, run.deadline);
  const Result<std::shared_ptr<const CompiledQuery>>* precompiled =
      i < run.compiled.size() && run.compiled[i].has_value()
          ? &*run.compiled[i]
          : nullptr;
  if (job.document != kNoDocument && job.tree != nullptr) {
    run.results[i].status = Status::InvalidArgument(
        "job addresses both a DocumentId and a raw tree");
  } else if (job.document != kNoDocument) {
    if (store_ == nullptr) {
      run.results[i].status = Status::InvalidArgument(
          "job addresses a DocumentId but the service has no DocumentStore");
    } else {
      const ResolvedDoc& resolved = run.docs.at(job.document);
      if (resolved.doc == nullptr) {
        run.results[i].status = resolved.fetch_status;
      } else {
        run.results[i] =
            RunJob(&resolved.doc->tree(), job.query, job.shape,
                   job.engine_override, job.repr_override,
                   job.force_parse_order, resolved.cache, resolved.plans,
                   resolved.relations, precompiled, token);
      }
    }
  } else {
    auto it = run.tree_caches.find(job.tree);
    auto rel_it = run.tree_relations.find(job.tree);
    run.results[i] =
        RunJob(job.tree, job.query, job.shape, job.engine_override,
               job.repr_override, job.force_parse_order,
               it == run.tree_caches.end() ? nullptr : it->second, nullptr,
               rel_it == run.tree_relations.end() ? nullptr : rel_it->second,
               precompiled, token);
  }
  switch (run.results[i].status.code()) {
    case StatusCode::kCancelled:
      jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kDeadlineExceeded:
      jobs_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      jobs_completed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void QueryService::RunBatchWorker(BatchState& run, std::size_t worker_index) {
  // Affinity first, stealing second: worker w starts on shard group
  // w mod G and claims its jobs via the group cursor; once that group is
  // drained it moves on to the next, so stragglers on one shard are
  // finished by otherwise-idle workers. Each job writes only its own
  // result slot, so the steal order never affects results.
  const std::size_t num_groups = run.groups.size();
  for (std::size_t offset = 0; offset < num_groups; ++offset) {
    const std::size_t g = (worker_index + offset) % num_groups;
    const std::vector<std::size_t>& group = run.groups[g];
    std::atomic<std::size_t>& cursor = run.cursors[g];
    for (std::size_t k = cursor.fetch_add(1); k < group.size();
         k = cursor.fetch_add(1)) {
      RunOne(run, group[k]);
    }
  }
}

void QueryService::FinishRun(BatchState& run) {
  // Admission counters are retired BEFORE waiters are woken, so a caller
  // returning from Wait() observes stats() with this batch completed.
  if (run.admitted) {
    {
      MutexLock lock(adm_->mu);
      --adm_->inflight_batches;
      ++batches_completed_;
    }
    adm_->cv.NotifyAll();
  }
  {
    MutexLock lock(run.mu);
    run.done = true;
  }
  run.cv.NotifyAll();
}

void QueryService::ExecuteRun(std::shared_ptr<BatchState> run) {
  const std::size_t num_jobs = run->jobs->size();
  // Inline only when there is no pool or nothing to do. A single-job
  // batch still goes through the pool: on the TrySubmit path the caller
  // here is the dispatcher thread, and running the job inline would
  // serialize admission behind every batch's execution.
  if (pool_ == nullptr || num_jobs == 0) {
    RunBatchWorker(*run, 0);
    FinishRun(*run);
    return;
  }
  const std::size_t live_workers = std::min(num_threads_, num_jobs);
  run->remaining_workers.store(live_workers, std::memory_order_relaxed);
  for (std::size_t w = 0; w < live_workers; ++w) {
    pool_->Submit([this, run, w] {
      RunBatchWorker(*run, w);
      if (run->remaining_workers.fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        FinishRun(*run);
      }
    });
  }
}

std::vector<QueryResult> QueryService::EvaluateBatch(
    const std::vector<QueryJob>& jobs) {
  if (jobs.empty()) return {};
  auto run = std::make_shared<BatchState>();
  run->jobs = &jobs;  // caller-owned; we block below until the run is done
  PrepareRun(*run);
  ExecuteRun(run);
  MutexLock lock(run->mu);
  while (!run->done) run->cv.Wait(lock);
  return std::move(run->results);
}

Result<BatchHandle> QueryService::TrySubmit(std::vector<QueryJob> jobs,
                                            BatchOptions options) {
  auto state = std::make_shared<BatchState>();
  state->owned_jobs = std::move(jobs);
  state->jobs = &state->owned_jobs;
  state->deadline = options.deadline;
  state->admitted = true;
  {
    MutexLock lock(adm_->mu);
    if (stopping_) {
      ++batches_rejected_;
      return Status::Overloaded("service is shutting down");
    }
    if (max_queued_batches_ != 0 &&
        adm_queue_.size() >= max_queued_batches_) {
      ++batches_rejected_;
      return Status::Overloaded(
          "admission queue full (" + std::to_string(adm_queue_.size()) +
          " batches queued, limit " + std::to_string(max_queued_batches_) +
          ")");
    }
    adm_queue_.push_back(state);
    ++batches_accepted_;
  }
  adm_->cv.NotifyAll();
  return BatchHandle(std::move(state));
}

Result<QueryStream> QueryService::OpenStream(DocumentId document,
                                             std::string_view query,
                                             StreamOptions options) {
  if (store_ == nullptr) {
    return Status::InvalidArgument(
        "stream addresses a DocumentId but the service has no DocumentStore");
  }
  XPV_ASSIGN_OR_RETURN(DocumentPtr doc, store_->Fetch(document));
  // The stream holds both the DocumentPtr and the AxisCache shared_ptr:
  // a concurrent Remove(document) only forgets the id -- the pinned tree
  // and cache outlive it, so an open stream keeps serving identical
  // answers (see the stream-outlives-Remove tests).
  std::shared_ptr<AxisCache> cache = store_->AxisCacheFor(document);
  const Tree* tree = &doc->tree();
  return OpenStreamImpl(std::move(doc), tree, std::move(cache),
                        store_->RelationCacheFor(document),
                        store_->PlanMemoFor(document), query, options);
}

Result<QueryStream> QueryService::OpenStream(const Tree& tree,
                                             std::string_view query,
                                             StreamOptions options) {
  return OpenStreamImpl(nullptr, &tree, std::make_shared<AxisCache>(tree),
                        nullptr, nullptr, query, options);
}

Result<QueryStream> QueryService::OpenStreamImpl(
    DocumentPtr doc, const Tree* tree, std::shared_ptr<AxisCache> cache,
    std::shared_ptr<ppl::RelationCache> relations,
    std::shared_ptr<PlanMemo> plans, std::string_view query,
    StreamOptions options) {
  if (tree == nullptr || tree->empty()) {
    return Status::InvalidArgument("stream has no tree");
  }
  if (cache == nullptr) {
    // A Remove() racing between Get() and AxisCacheFor() loses the
    // store's persistent cache (AxisCacheFor returns null for ids it no
    // longer knows); the pinned tree is still valid, so fall back to a
    // private cache exactly like the batch path does.
    cache = std::make_shared<AxisCache>(*tree);
  }
  Result<std::shared_ptr<const CompiledQuery>> compiled =
      cache_.GetOrCompile(std::string(query));
  if (!compiled.ok()) return compiled.status();

  // Plan with the caller's tuple budget (offset tuples are produced and
  // discarded, so they count). Only n-ary backings depend on the budget:
  // a binary query streams its from-root node set whatever the limit, so
  // its stream plan is memoized per document like a batch plan.
  const std::size_t budget =
      options.limit == 0 ? 0 : options.offset + options.limit;
  const auto plan_stream = [&] {
    return PlanQuery(**compiled, *tree, ResultShape::kTupleStream, {},
                     budget);
  };
  ExecutionPlan plan =
      plans != nullptr && (*compiled)->pplbin != nullptr
          ? plans->GetOrCompute((*compiled)->canonical_text,
                                ResultShape::kTupleStream, plan_stream)
          : plan_stream();

  // Same dense ceiling as RunJob: n-ary stream backings (enumerator
  // preprocessing and Fig. 8 materialization alike) build n x n
  // relations, so refuse them on oversized trees up front.
  if (tree->size() > BitMatrix::kMaxDenseNodes &&
      PlanRequiresDenseRelation(**compiled, plan)) {
    return Status::ResourceExhausted(
        "stream plan " + plan.DebugString() +
        " requires a dense relation on a " + std::to_string(tree->size()) +
        "-node tree (dense ceiling " +
        std::to_string(BitMatrix::kMaxDenseNodes) + " nodes)");
  }

  // Take one inflight slot; never block. An open stream is admitted load
  // exactly like a running batch.
  {
    MutexLock lock(adm_->mu);
    if (stopping_) {
      return Status::Overloaded("service is shutting down");
    }
    if (max_inflight_batches_ != 0 &&
        adm_->inflight_batches + adm_->open_streams >=
            max_inflight_batches_) {
      return Status::Overloaded(
          "all " + std::to_string(max_inflight_batches_) +
          " inflight slots are taken (" +
          std::to_string(adm_->open_streams) + " open streams)");
    }
    ++adm_->open_streams;
    ++adm_->streams_opened;
  }

  auto state = std::make_unique<internal::StreamState>();
  state->adm = adm_;
  state->doc = std::move(doc);
  state->tree = tree;
  state->cache = std::move(cache);
  state->relations = std::move(relations);
  state->compiled = std::move(compiled).value();
  state->plan = plan;
  state->options = options;
  state->arity = state->compiled->pplbin != nullptr
                     ? 1
                     : state->compiled->tuple_vars.size();
  state->token = CancelToken(&state->cancelled, options.deadline);
  return QueryStream(std::move(state));
}

void QueryService::DispatcherLoop() {
  MutexLock lock(adm_->mu);
  while (true) {
    // Open streams count against the inflight bound -- except during
    // shutdown: a stream the caller still holds may never close (it
    // cannot while the caller is blocked in ~QueryService), and the
    // destructor's "accepted batches always drain" contract must win
    // over the stream's slot, so stopping admission ignores streams.
    // (Explicit wait loop rather than the predicate overload: the
    // thread-safety analysis cannot see guarded reads inside a lambda.)
    while (true) {
      const std::size_t occupied =
          adm_->inflight_batches + (stopping_ ? 0 : adm_->open_streams);
      const bool can_admit =
          !adm_queue_.empty() &&
          (max_inflight_batches_ == 0 || occupied < max_inflight_batches_);
      if (can_admit || (stopping_ && adm_queue_.empty())) break;
      adm_->cv.Wait(lock);
    }
    if (adm_queue_.empty()) return;  // only reachable when stopping
    std::shared_ptr<BatchState> state = std::move(adm_queue_.front());
    adm_queue_.pop_front();
    ++adm_->inflight_batches;
    lock.Unlock();
    // Preparation (store lookups, cache resolution) happens outside
    // adm_mu_ so TrySubmit callers are never blocked behind it. With no
    // pool this runs the whole batch inline on the dispatcher thread.
    PrepareRun(*state);
    ExecuteRun(std::move(state));
    lock.Relock();
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  {
    MutexLock lock(adm_->mu);
    s.batches_accepted = batches_accepted_;
    s.batches_rejected = batches_rejected_;
    s.batches_completed = batches_completed_;
    s.batches_queued = adm_queue_.size();
    s.batches_running = adm_->inflight_batches;
    s.streams_opened = adm_->streams_opened;
    s.streams_closed = adm_->streams_closed;
    s.streams_open = adm_->open_streams;
  }
  s.stream_tuples = adm_->stream_tuples.load(std::memory_order_relaxed);
  s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  s.jobs_cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  s.jobs_deadline_exceeded =
      jobs_deadline_exceeded_.load(std::memory_order_relaxed);
  s.dense_products = dense_products_.load(std::memory_order_relaxed);
  s.sparse_products = sparse_products_.load(std::memory_order_relaxed);
  s.repr_crossovers = repr_crossovers_.load(std::memory_order_relaxed);
  s.subrel_hits = subrel_hits_.load(std::memory_order_relaxed);
  s.subrel_misses = subrel_misses_.load(std::memory_order_relaxed);
  s.chains_reassociated =
      chains_reassociated_.load(std::memory_order_relaxed);
  if (store_ != nullptr) {
    s.shard_stats = store_->shard_stats();
    for (const DocumentStoreStats& shard : s.shard_stats) {
      s.subrel_bytes += shard.relation_cache_bytes;
      s.doc_spills += shard.doc_spills;
      s.doc_reloads += shard.doc_reloads;
      s.doc_reattaches += shard.doc_reattaches;
      s.mmap_bytes += shard.mmap_bytes;
      s.resident_docs += shard.resident_docs;
      s.spilled_docs += shard.spilled_docs;
      s.resident_doc_bytes += shard.resident_doc_bytes;
    }
  }
  return s;
}

void QueryService::AccumulateEngineStats(const ppl::MatrixEngineStats& s) {
  if (s.dense_products != 0) {
    dense_products_.fetch_add(s.dense_products, std::memory_order_relaxed);
  }
  if (s.sparse_products != 0) {
    sparse_products_.fetch_add(s.sparse_products, std::memory_order_relaxed);
  }
  if (s.repr_crossovers != 0) {
    repr_crossovers_.fetch_add(s.repr_crossovers, std::memory_order_relaxed);
  }
  if (s.subrel_hits != 0) {
    subrel_hits_.fetch_add(s.subrel_hits, std::memory_order_relaxed);
  }
  if (s.subrel_misses != 0) {
    subrel_misses_.fetch_add(s.subrel_misses, std::memory_order_relaxed);
  }
}

}  // namespace xpv::engine
