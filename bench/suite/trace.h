// Span recorder for the traced benchmark run.
//
// Every span is {op id, span id, parent, layer, name, start_ns, end_ns,
// bytes}. Spans go to per-thread in-memory buffers (no lock on the hot
// path, only at a thread's first span) and are aggregated or written out
// as JSON when the run ends. A span's parent is the innermost span open on
// the same thread; its op id is the id of the outermost one, so every span
// a checkpoint write causes — scan, transport submit, store append — can
// be attributed to that write. Self time is a span's duration minus its
// children's.
//
// Recording is off unless Tracer::Enable() was called: the untraced run
// pays one relaxed atomic load per instrumented call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stdchk::suite {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint64_t op = 0;      // id of the root span of this call tree
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root
  const char* layer = "";    // src/ module name
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;   // payload bytes the call moved, where known
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Starts a span on the calling thread; returns its id (0 when disabled).
  std::uint64_t Begin(const char* layer, const char* name) {
    if (!enabled()) return 0;
    ThreadState& t = Local();
    SpanRecord rec;
    rec.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    rec.parent = t.open.empty() ? 0 : t.buffer->at(t.open.back()).id;
    rec.op = t.open.empty() ? rec.id : t.buffer->at(t.open.front()).op;
    rec.layer = layer;
    rec.name = name;
    rec.start_ns = NowNs();
    t.open.push_back(t.buffer->size());
    t.buffer->push_back(rec);
    return rec.id;
  }

  void End(std::uint64_t id, std::uint64_t bytes) {
    if (id == 0) return;
    ThreadState& t = Local();
    SpanRecord& rec = t.buffer->at(t.open.back());
    rec.end_ns = NowNs();
    rec.bytes = bytes;
    t.open.pop_back();
  }

  // Every span recorded so far, across threads. Call only once the traced
  // threads are quiescent (joined or idle).
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
    return all;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) buffer->clear();
  }

  // One JSON object per line; returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : Collect()) {
      std::fprintf(f,
                   "{\"op\":%llu,\"span\":%llu,\"parent\":%llu,"
                   "\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"bytes\":%llu}\n",
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.layer, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.bytes));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct ThreadState {
    std::vector<SpanRecord>* buffer = nullptr;  // owned by Tracer::buffers_
    std::vector<std::size_t> open;              // indices into *buffer
  };

  ThreadState& Local() {
    thread_local ThreadState state;
    if (state.buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      buffers_.back()->reserve(1 << 14);
      state.buffer = buffers_.back().get();
    }
    return state;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  // Buffers outlive their threads so spans survive until Collect().
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

// RAII span. `set_bytes` records the payload the call moved.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name)
      : id_(Tracer::Get().Begin(layer, name)) {}
  ~ScopedSpan() { Tracer::Get().End(id_, bytes_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  std::uint64_t id_;
  std::uint64_t bytes_ = 0;
};

}  // namespace stdchk::suite
