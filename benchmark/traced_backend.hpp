// In-memory span tracing for the campaign benchmark, and a decorator that
// records spans around every hook of a CampaignEngine backend.
//
// TracedBackend<B> satisfies the backend concept documented in
// engine/engine.hpp by forwarding to B. It forwards every optional hook B
// has (batch_size, the staged-pipeline types and hooks, Worker::run_batch /
// run_capture), each behind a `requires` guard, so the engine takes exactly
// the path it takes for the bare backend, and a hook that disappears from B
// later simply stops being forwarded instead of breaking the build.
//
// Spans are kept in memory (one mutex-guarded vector; a span is recorded
// when it closes) and written as Chrome trace-event JSON at the end of the
// run. A span's self time is its duration minus the union of its
// same-thread children; children on other threads (the staged pipeline's
// restore and classify stages) run concurrently and are not subtracted.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"

namespace issrtl::bench {

struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  u64 id = 0;
  u64 parent = 0;           ///< 0 = root
  unsigned thread = 0;      ///< dense per-process thread number
  std::int64_t site = -1;   ///< request id: backend-global site index
  std::int64_t self_ns = 0; ///< filled by compute_self_times()
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  u64 next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void record(const char* name, const char* layer, std::int64_t start,
              std::int64_t end, u64 id, u64 parent, std::int64_t site) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_ns = start;
    s.end_ns = end;
    s.id = id;
    s.parent = parent;
    s.thread = thread_number();
    s.site = site;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  /// Named counter sampled at `ts_ns` (written as a Chrome "C" event).
  void counter(const std::string& name, std::int64_t ts_ns, double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    counters_.push_back({name, ts_ns, value});
  }

  /// Only call once every traced thread has joined.
  std::vector<Span>& spans() { return spans_; }

  /// Self time of every span: duration minus the union of its children on
  /// the same thread.
  void compute_self_times() {
    std::map<u64, std::vector<const Span*>> children;
    for (const Span& s : spans_) children[s.parent].push_back(&s);
    for (Span& s : spans_) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      const auto it = children.find(s.id);
      if (it != children.end()) {
        for (const Span* c : it->second) {
          if (c->thread == s.thread) iv.emplace_back(c->start_ns, c->end_ns);
        }
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t cur_start = 0;
      std::int64_t cur_end = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
      s.self_ns = (s.end_ns - s.start_ns) - covered;
    }
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). Returns false
  /// when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"site\":%lld,\"self_us\":%.3f}}",
                   first ? "" : ",\n", s.name, s.layer, s.thread,
                   s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.site), s.self_ns / 1e3);
      first = false;
    }
    for (const CounterSample& c : counters_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                   "\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
                   first ? "" : ",\n", c.name.c_str(), c.ts_ns / 1e3, c.value);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct CounterSample {
    std::string name;
    std::int64_t ts_ns;
    double value;
  };

  static unsigned thread_number() {
    static std::atomic<unsigned> next{1};
    thread_local const unsigned mine = next.fetch_add(1);
    return mine;
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<u64> next_id_{1};
  std::mutex mu_;  // guards spans_ and counters_
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
};

/// RAII span: opens at construction, records at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, const char* layer, u64 parent,
             std::int64_t site = -1)
      : t_(t), name_(name), layer_(layer), id_(t.next_id()), parent_(parent),
        site_(site), start_(t.now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { t_.record(name_, layer_, start_, t_.now(), id_, parent_, site_); }

  u64 id() const noexcept { return id_; }

 private:
  Tracer& t_;
  const char* name_;
  const char* layer_;
  u64 id_;
  u64 parent_;
  std::int64_t site_;
  std::int64_t start_;
};

/// Staged-pipeline type aliases, present only when the wrapped backend has
/// them (the engine selects its staged pipeline by these names).
template <class B>
struct StagedTypes {};
template <class B>
  requires requires {
    typename B::Retired;
    typename B::PrefetchSnapshot;
  }
struct StagedTypes<B> {
  using Retired = typename B::Retired;
  using PrefetchSnapshot = typename B::PrefetchSnapshot;
};

template <class B>
class TracedBackend : public StagedTypes<B> {
 public:
  using Record = typename B::Record;

  /// Spans recorded through this decorator are parented to `parent` (the
  /// caller's CampaignEngine::run span).
  TracedBackend(const B& inner, Tracer& tracer, u64 parent)
      : b_(inner), t_(tracer), parent_(parent) {}

  std::size_t site_count() const { return b_.site_count(); }
  u64 site_instant(std::size_t i) const { return b_.site_instant(i); }

  u64 campaign_key() const { return b_.campaign_key(); }
  u64 site_key(std::size_t i) const { return b_.site_key(i); }
  engine::JournalEntry journal_entry(std::size_t i, const Record& r) const {
    return b_.journal_entry(i, r);
  }
  Record record_from_journal(const engine::JournalEntry& e) const {
    return b_.record_from_journal(e);
  }
  Record error_record(std::size_t i, const std::string& what) const {
    return b_.error_record(i, what);
  }

  std::size_t batch_size() const
    requires requires(const B& b) { b.batch_size(); }
  {
    return b_.batch_size();
  }

  bool staged_enabled() const
    requires requires(const B& b) { b.staged_enabled(); }
  {
    return b_.staged_enabled();
  }

  class Worker {
   public:
    Worker(std::unique_ptr<typename B::Worker> inner, Tracer& t, u64 parent)
        : w_(std::move(inner)), t_(t), parent_(parent) {}

    Record run_site(std::size_t index) {
      const ScopedSpan span(t_, "engine.site", "engine", parent_,
                            static_cast<std::int64_t>(index));
      return w_->run_site(index);
    }

    template <class OnSite, class Stop, class Counters>
      requires requires(typename B::Worker& w,
                        const std::vector<std::size_t>& v, const OnSite& f,
                        const Stop& s, Counters& c) { w.run_batch(v, f, s, c); }
    void run_batch(const std::vector<std::size_t>& indices,
                   const OnSite& on_site, const Stop& stop,
                   Counters& counters) {
      const ScopedSpan span(t_, "engine.batch", "engine", parent_);
      w_->run_batch(indices, on_site, stop, counters);
    }

    template <class Pipe, class Stop, class Counters>
      requires requires(typename B::Worker& w,
                        const std::vector<std::size_t>& v, Pipe& p,
                        const Stop& s, Counters& c) {
        w.run_capture(v, p, s, c);
      }
    void run_capture(const std::vector<std::size_t>& indices, Pipe& pipe,
                     const Stop& stop, Counters& counters) {
      const ScopedSpan span(t_, "engine.capture", "engine", parent_);
      w_->run_capture(indices, pipe, stop, counters);
    }

   private:
    std::unique_ptr<typename B::Worker> w_;
    Tracer& t_;
    u64 parent_;
  };

  std::unique_ptr<Worker> make_worker(unsigned shard) const {
    return std::make_unique<Worker>(b_.make_worker(shard), t_, parent_);
  }

  template <class P>
  class Prefetcher {
   public:
    Prefetcher(std::unique_ptr<P> inner, Tracer& t, u64 parent)
        : p_(std::move(inner)), t_(t), parent_(parent) {}
    auto materialize(u64 instant) {
      const ScopedSpan span(t_, "engine.restore", "engine", parent_);
      return p_->materialize(instant);
    }

   private:
    std::unique_ptr<P> p_;
    Tracer& t_;
    u64 parent_;
  };

  auto make_prefetcher(unsigned shard) const
    requires requires(const B& b, unsigned s) { b.make_prefetcher(s); }
  {
    using P = typename decltype(b_.make_prefetcher(shard))::element_type;
    return std::make_unique<Prefetcher<P>>(b_.make_prefetcher(shard), t_,
                                           parent_);
  }

  template <class C>
  class Classifier {
   public:
    Classifier(std::unique_ptr<C> inner, Tracer& t, u64 parent)
        : c_(std::move(inner)), t_(t), parent_(parent) {}
    template <class Packet>
    Record classify(const Packet& p) {
      const ScopedSpan span(t_, "engine.classify", "engine", parent_,
                            static_cast<std::int64_t>(p.site_index));
      return c_->classify(p);
    }

   private:
    std::unique_ptr<C> c_;
    Tracer& t_;
    u64 parent_;
  };

  auto make_classifier() const
    requires requires(const B& b) { b.make_classifier(); }
  {
    using C = typename decltype(b_.make_classifier())::element_type;
    return std::make_unique<Classifier<C>>(b_.make_classifier(), t_, parent_);
  }

 private:
  const B& b_;
  Tracer& t_;
  u64 parent_;
};

}  // namespace issrtl::bench
