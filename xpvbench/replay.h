// The traced run: in-memory spans, and a direct-layer replay of the
// service's job path.
//
// Replayer::Job performs the steps of QueryService's job path by calling
// each layer's public entry point itself -- DocumentStore::Fetch,
// QueryCache::GetOrCompile, PlanMemo/PlanQuery, AxisCache::Matrix, then
// GkpEngine / MatrixEngine / hcl::QueryAnswerer -- and wraps each call in
// a span. Nothing inside the library is instrumented. With a null Tracer
// the same calls run without spans, which is how the tracing overhead is
// measured.
#ifndef XPVBENCH_REPLAY_H_
#define XPVBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/document_store.h"
#include "engine/query_cache.h"
#include "engine/query_service.h"
#include "ppl/matrix_engine.h"

namespace xpvbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the span list; -1 for a root
  std::uint32_t request;
};

/// Records nested spans of one thread in memory. Self time per span name
/// is accumulated for every span; the span records themselves are kept
/// for the first kMaxStoredSpans only, which bounds the span file.
class Tracer {
 public:
  static constexpr std::size_t kMaxStoredSpans = 200000;

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open one.
  void Begin(const char* name, std::uint32_t request);
  /// Closes the innermost open span.
  void End();

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint32_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Begin(name, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  std::uint64_t spans_total() const { return spans_total_; }
  const std::vector<Span>& stored_spans() const { return spans_; }
  /// Self time (duration minus child spans) summed per span name, in us.
  std::map<std::string, double> SelfMicros() const;
  /// One JSON object per stored span and line: name, start_ns, end_ns,
  /// parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t stored;  // index into spans_, or -1
  };

  std::int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::map<const char*, std::int64_t> self_ns_;
  std::uint64_t spans_total_ = 0;
};

/// The library layer (module) a span name is charged to.
const char* LayerOf(const std::string& span_name);

/// Counts gathered by the replay at the layer boundaries it calls.
struct ReplayCounts {
  std::uint64_t jobs = 0;
  std::uint64_t jobs_gkp = 0;
  std::uint64_t jobs_matrix_dense = 0;
  std::uint64_t jobs_matrix_sparse = 0;
  std::uint64_t jobs_nary = 0;
  std::uint64_t nary_tuples = 0;
  std::uint64_t chains_reassociated = 0;
  xpv::ppl::MatrixEngineStats matrix;
  std::uint64_t streams = 0;
  std::size_t stream_backing_bytes_max = 0;
};

class Replayer {
 public:
  /// `streams` serves stream requests (OpenStream is the stream layer's
  /// public entry point); `tracer` may be null.
  Replayer(xpv::engine::DocumentStore& store,
           xpv::engine::QueryService& streams, Tracer* tracer)
      : store_(store), streams_(streams), tracer_(tracer) {}

  /// One job; returns its semantic digest (digest.h).
  std::uint64_t Job(xpv::engine::DocumentId id, const std::string& text,
                    xpv::engine::ResultShape shape, std::uint32_t request);
  /// Opens a stream, reads the first page and closes it; returns the
  /// page's digest.
  std::uint64_t Stream(xpv::engine::DocumentId id, const std::string& text,
                       std::uint32_t request);

  const xpv::engine::QueryCache& compile_cache() const { return cache_; }
  const ReplayCounts& counts() const { return counts_; }
  Tracer* tracer() const { return tracer_; }

 private:
  xpv::engine::DocumentStore& store_;
  xpv::engine::QueryService& streams_;
  Tracer* tracer_;
  /// The replay's own compiled-query cache, cold at construction like a
  /// fresh service's.
  xpv::engine::QueryCache cache_;
  ReplayCounts counts_;
};

}  // namespace xpvbench

#endif  // XPVBENCH_REPLAY_H_
