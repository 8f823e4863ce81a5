// Integration tests for the centralized SRCA middleware (paper Fig. 1),
// including the paper's Fig. 2 abort scenario and the §4.2 hidden
// deadlock demonstration.

#include "middleware/srca.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "engine/database.h"

namespace sirep::middleware {
namespace {

using sql::Value;

class SrcaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      dbs_.push_back(std::make_unique<engine::Database>(
          "r" + std::to_string(i)));
      auto r = dbs_.back()->ExecuteAutoCommit(
          "CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))");
      ASSERT_TRUE(r.ok());
      for (int k = 0; k < 10; ++k) {
        ASSERT_TRUE(dbs_.back()
                        ->ExecuteAutoCommit(
                            "INSERT INTO kv VALUES (?, 0)",
                            {Value::Int(k)})
                        .ok());
      }
    }
    std::vector<engine::Database*> ptrs;
    for (auto& db : dbs_) ptrs.push_back(db.get());
    srca_ = std::make_unique<SrcaMiddleware>(ptrs);
  }

  int64_t ReadAt(size_t replica, int64_t k) {
    auto r = dbs_[replica]->ExecuteAutoCommit(
        "SELECT v FROM kv WHERE k = ?", {Value::Int(k)});
    EXPECT_TRUE(r.ok());
    return r.value().rows[0][0].AsInt();
  }

  std::vector<std::unique_ptr<engine::Database>> dbs_;
  std::unique_ptr<SrcaMiddleware> srca_;
};

TEST_F(SrcaTest, UpdatePropagatesToAllReplicas) {
  auto txn = srca_->Begin(0);
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(
      srca_->Execute(handle, "UPDATE kv SET v = 42 WHERE k = 1").ok());
  ASSERT_TRUE(srca_->Commit(handle).ok());

  // The local commit returns to the client immediately (hybrid
  // propagation); remote replicas apply lazily — wait a moment.
  for (int spin = 0; spin < 100; ++spin) {
    if (ReadAt(1, 1) == 42 && ReadAt(2, 1) == 42) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ReadAt(0, 1), 42);
  EXPECT_EQ(ReadAt(1, 1), 42);
  EXPECT_EQ(ReadAt(2, 1), 42);
  EXPECT_EQ(srca_->stats().committed, 1u);
}

TEST_F(SrcaTest, ReadOnlyCommitsLocallyOnly) {
  auto txn = srca_->Begin(1);
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  auto r = srca_->Execute(handle, "SELECT v FROM kv WHERE k = 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 0);
  ASSERT_TRUE(srca_->Commit(handle).ok());
  EXPECT_EQ(srca_->stats().empty_ws_commits, 1u);
}

TEST_F(SrcaTest, Fig2AbortScenario) {
  // Paper Fig. 2: T1 local at R1 updates x; T3 local at R2 updates x too,
  // starting before T1's writeset reaches R2. T3 must fail validation.
  auto t1 = srca_->Begin(0);
  ASSERT_TRUE(t1.ok());
  auto h1 = std::move(t1).value();

  auto t3 = srca_->Begin(1);  // starts while T1 in flight, concurrent
  ASSERT_TRUE(t3.ok());
  auto h3 = std::move(t3).value();

  ASSERT_TRUE(srca_->Execute(h1, "UPDATE kv SET v = 1 WHERE k = 5").ok());
  ASSERT_TRUE(srca_->Execute(h3, "UPDATE kv SET v = 3 WHERE k = 5").ok());

  ASSERT_TRUE(srca_->Commit(h1).ok());
  Status st = srca_->Commit(h3);
  EXPECT_EQ(st.code(), StatusCode::kConflict);
  EXPECT_EQ(srca_->stats().validation_aborts, 1u);

  // T2 of the figure: concurrent reader writing a different object
  // commits fine.
  auto t2 = srca_->Begin(1);
  ASSERT_TRUE(t2.ok());
  auto h2 = std::move(t2).value();
  ASSERT_TRUE(srca_->Execute(h2, "SELECT v FROM kv WHERE k = 5").ok());
  ASSERT_TRUE(srca_->Execute(h2, "UPDATE kv SET v = 2 WHERE k = 6").ok());
  EXPECT_TRUE(srca_->Commit(h2).ok());
}

TEST_F(SrcaTest, NonConflictingConcurrentTxnsBothCommit) {
  auto t1 = srca_->Begin(0);
  auto t2 = srca_->Begin(1);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto h1 = std::move(t1).value();
  auto h2 = std::move(t2).value();
  ASSERT_TRUE(srca_->Execute(h1, "UPDATE kv SET v = 1 WHERE k = 1").ok());
  ASSERT_TRUE(srca_->Execute(h2, "UPDATE kv SET v = 2 WHERE k = 2").ok());
  EXPECT_TRUE(srca_->Commit(h1).ok());
  EXPECT_TRUE(srca_->Commit(h2).ok());
}

TEST_F(SrcaTest, RollbackLeavesNoTrace) {
  auto txn = srca_->Begin(0);
  ASSERT_TRUE(txn.ok());
  auto handle = std::move(txn).value();
  ASSERT_TRUE(srca_->Execute(handle, "UPDATE kv SET v = 9 WHERE k = 1").ok());
  ASSERT_TRUE(srca_->Rollback(handle).ok());
  EXPECT_EQ(ReadAt(0, 1), 0);
}

TEST_F(SrcaTest, ManyClientsConverge) {
  constexpr int kClients = 6;
  constexpr int kTxns = 20;
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kTxns; ++i) {
        auto txn = srca_->Begin(static_cast<size_t>(c) % 3);
        if (!txn.ok()) continue;
        auto handle = std::move(txn).value();
        const int64_t k = (c * kTxns + i) % 10;
        if (!srca_
                 ->Execute(handle, "UPDATE kv SET v = v + 1 WHERE k = ?",
                           {Value::Int(k)})
                 .ok()) {
          srca_->Rollback(handle);
          continue;
        }
        if (srca_->Commit(handle).ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_GT(committed.load(), 0);

  // Wait until every replica's queue drains (poll for convergence), then
  // all replicas must agree and the total equals the committed count.
  int64_t sum0 = 0;
  for (int spin = 0; spin < 1000; ++spin) {
    bool drained = true;
    for (size_t r = 0; r < 3; ++r) {
      int64_t sum = 0;
      for (int k = 0; k < 10; ++k) sum += ReadAt(r, k);
      if (r == 0) sum0 = sum;
      drained = drained && sum == committed.load();
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(sum0, committed.load());
  for (size_t r = 1; r < 3; ++r) {
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(ReadAt(r, k), ReadAt(0, k)) << "replica " << r << " k " << k;
    }
  }
}

// The §4.2 "hidden deadlock": with strictly serial writeset application,
// a cycle spans the middleware queue and the database lock table. SRCA
// cannot make progress; this test demonstrates the stall (and that the
// paper's Adjustment 2 — implemented in SrcaRepReplica — is necessary).
TEST_F(SrcaTest, HiddenDeadlockDemonstration) {
  // Local transactions Ti (holds x=k7) and Tj (holds y=k8) at replica 0.
  auto ti = srca_->Begin(0);
  auto tj = srca_->Begin(0);
  ASSERT_TRUE(ti.ok());
  ASSERT_TRUE(tj.ok());
  auto hi = std::move(ti).value();
  auto hj = std::move(tj).value();
  ASSERT_TRUE(srca_->Execute(hi, "UPDATE kv SET v = 1 WHERE k = 7").ok());
  ASSERT_TRUE(srca_->Execute(hj, "UPDATE kv SET v = 1 WHERE k = 8").ok());

  // Remote transaction Tr (local at replica 1) writes y=k8: its writeset
  // application at replica 0 blocks on Tj's lock.
  auto tr = srca_->Begin(1);
  ASSERT_TRUE(tr.ok());
  auto hr = std::move(tr).value();
  ASSERT_TRUE(srca_->Execute(hr, "UPDATE kv SET v = 2 WHERE k = 8").ok());
  ASSERT_TRUE(srca_->Commit(hr).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Ti validates fine (no conflict with Tr), but its commit is queued
  // behind Tr at replica 0 — and Tr waits for Tj's lock.
  std::atomic<bool> ti_committed{false};
  std::thread committer([&] {
    if (srca_->Commit(hi).ok()) ti_committed.store(true);
  });

  // Tj now requests x (held by Ti): the DB sees Tj->Ti; the middleware
  // queue has Ti waiting behind Tr which waits for Tj. Hidden deadlock —
  // nothing progresses.
  std::atomic<bool> tj_done{false};
  std::thread victim([&] {
    auto r = srca_->Execute(hj, "UPDATE kv SET v = 2 WHERE k = 7");
    (void)r;
    tj_done.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(ti_committed.load()) << "hidden deadlock should stall Ti";

  // Resolve manually (the client gives up on Tj), which unblocks the
  // whole chain: Tj aborts -> Tr applies -> Ti commits.
  srca_->Rollback(hj);
  committer.join();
  victim.join();
  EXPECT_TRUE(ti_committed.load());
}

}  // namespace
}  // namespace sirep::middleware
