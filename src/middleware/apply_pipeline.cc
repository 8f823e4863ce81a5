#include "middleware/apply_pipeline.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>

#include "obs/profiler.h"
#include "storage/types.h"

namespace sirep::middleware {

ApplyPipeline::ApplyPipeline(size_t width, ApplyFn apply,
                             obs::MetricsRegistry* registry)
    : apply_(std::move(apply)),
      queues_(std::max<size_t>(width, 1)),
      depth_(queues_.size(), nullptr) {
  if (registry != nullptr) {
    for (size_t i = 0; i < queues_.size(); ++i) {
      depth_[i] = registry->GetGauge("mw.apply.shard" + std::to_string(i) +
                                     ".queue_depth");
    }
  }
  workers_.reserve(queues_.size());
  for (size_t i = 0; i < queues_.size(); ++i) {
    workers_.emplace_back([this, i] { Loop(i); });
  }
}

ApplyPipeline::~ApplyPipeline() { Shutdown(); }

void ApplyPipeline::Dispatch(ToCommitEntry entry) {
  const size_t q = Route(entry);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    queues_[q].push_back(std::move(entry));
    if (depth_[q] != nullptr) {
      depth_[q]->Set(static_cast<int64_t>(queues_[q].size()));
    }
  }
  // Any idle worker may steal the entry, so wake them all; dispatch
  // rates are bounded by the delivery thread, not by this notify.
  cv_.notify_all();
}

void ApplyPipeline::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

size_t ApplyPipeline::Route(const ToCommitEntry& entry) const {
  if (entry.ws != nullptr && !entry.ws->entries().empty()) {
    return storage::TupleIdHash()(entry.ws->entries().front().tuple) %
           queues_.size();
  }
  return static_cast<size_t>(entry.tid) % queues_.size();
}

bool ApplyPipeline::FindWork(size_t self, size_t* victim) const {
  for (size_t k = 0; k < queues_.size(); ++k) {
    const size_t q = (self + k) % queues_.size();
    if (!queues_[q].empty()) {
      *victim = q;
      return true;
    }
  }
  return false;
}

void ApplyPipeline::Loop(size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    size_t victim = 0;
    cv_.wait(lock, [&] { return shutdown_ || FindWork(self, &victim); });
    if (!FindWork(self, &victim)) return;  // shut down and drained
    ToCommitEntry entry = std::move(queues_[victim].front());
    queues_[victim].pop_front();
    if (depth_[victim] != nullptr) {
      depth_[victim]->Set(static_cast<int64_t>(queues_[victim].size()));
    }
    lock.unlock();
    {
      obs::Profiler::Section section("mw.pipeline.apply");
      apply_(std::move(entry));
    }
    lock.lock();
  }
}

size_t ApplyPipeline::ThreadsFromEnv(size_t configured) {
  const char* env = std::getenv("SIREP_APPLY_THREADS");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return configured == 0 ? 1 : configured;
}

}  // namespace sirep::middleware
