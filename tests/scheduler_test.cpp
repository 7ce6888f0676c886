// The process-wide work-stealing scheduler: submit/join basics, the
// inline-join deadlock-freedom rule, depth tags traveling with tasks
// (not threads), monotone pool growth bounded by the max component
// request, and the end-to-end oversubscription contract — a nested
// multi-threaded B&B inside a sweep job, even one moved onto a raw
// helper thread, never multiplies worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "mip/branch_and_bound.h"
#include "obs/metrics.h"
#include "runner/scheduler.h"
#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace metaopt::runner {
namespace {

TEST(SchedulerTest, SubmitAndJoinRunsEveryTask) {
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  std::atomic<int> count{0};
  std::vector<TaskHandle> handles;
  for (int i = 0; i < 500; ++i) {
    handles.push_back(sched.submit([&count] { count.fetch_add(1); }));
  }
  for (const TaskHandle& h : handles) sched.join(h);
  EXPECT_EQ(count.load(), 500);
}

TEST(SchedulerTest, JoinRunsUnclaimedTaskInline) {
  // The deadlock-freedom rule: joining a task no worker has claimed yet
  // runs it on the joining thread. Saturate the pool with slow tasks so
  // the joined task is still pending, then verify it ran on this thread.
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  std::atomic<bool> release{false};
  std::vector<TaskHandle> blockers;
  for (int i = 0; i < sched.num_threads(); ++i) {
    blockers.push_back(sched.submit([&release] {
      while (!release.load()) std::this_thread::yield();
    }));
  }
  std::thread::id ran_on;
  const TaskHandle task =
      sched.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
  sched.join(task);  // must not block behind the saturated pool
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  release.store(true);
  for (const TaskHandle& h : blockers) sched.join(h);
}

TEST(SchedulerTest, DepthTagTravelsWithTheTask) {
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(2);
  // Outside any scheduler task the depth is the -1 sentinel, so the
  // task_depth() + 1 submission idiom makes external work depth 0.
  EXPECT_EQ(util::task_depth(), -1);
  int outer_depth = -2;
  int inner_depth = -2;
  const TaskHandle outer = sched.submit(
      [&sched, &outer_depth, &inner_depth] {
        outer_depth = util::task_depth();
        const TaskHandle inner = sched.submit(
            [&inner_depth] { inner_depth = util::task_depth(); },
            util::task_depth() + 1);
        sched.join(inner);
      },
      util::task_depth() + 1);
  sched.join(outer);
  EXPECT_EQ(outer_depth, 0);
  EXPECT_EQ(inner_depth, 1);
  EXPECT_EQ(util::task_depth(), -1);  // restored after inline joins
}

TEST(SchedulerTest, EnsureThreadsOnlyGrows) {
  Scheduler& sched = Scheduler::global();
  sched.ensure_threads(3);
  const int width = sched.num_threads();
  EXPECT_GE(width, 3);
  sched.ensure_threads(1);  // a smaller request never shrinks the pool
  EXPECT_EQ(sched.num_threads(), width);
  sched.ensure_threads(0);  // nonsense requests are clamped, not fatal
  EXPECT_EQ(sched.num_threads(), width);
}

// Regression: a sweep job that moved its solver call onto a raw helper
// thread used to escape the thread-local oversubscription clamp — the
// helper thread had no marker and the B&B would spawn its full private
// pool on top of the sweep's. With the shared scheduler the bound is
// structural: no matter which thread asks, workers come from one pool
// whose size is the max of all requests, never a product.
TEST(SchedulerTest, NestedBnbOnHelperThreadNeverOversubscribes) {
  using mip::BranchAndBound;
  using mip::MipOptions;

  // A small branching MIP (same family as bnb_parallel_test).
  util::Rng rng(util::derive_seed(20260809, 1));
  lp::Model m;
  std::vector<lp::Var> xs;
  for (int i = 0; i < 6; ++i) {
    xs.push_back(m.add_binary("b" + std::to_string(i)));
  }
  lp::LinExpr weight;
  lp::LinExpr profit;
  double total_weight = 0.0;
  for (const lp::Var& x : xs) {
    const double w = rng.uniform(1.0, 5.0);
    total_weight += w;
    weight += w * lp::LinExpr(x);
    profit += rng.uniform(1.0, 6.0) * lp::LinExpr(x);
  }
  m.add_constraint(weight <= lp::LinExpr(total_weight * 0.5));
  m.set_objective(lp::ObjSense::Maximize, profit);

  MipOptions serial;
  serial.threads = 1;
  const auto ref = BranchAndBound(serial).solve(m);
  ASSERT_EQ(ref.status, lp::SolveStatus::Optimal);

  // A "sweep" whose job body hands the multi-threaded solve to a raw
  // std::thread — the exact shape that used to lose the clamp.
  SweepSpec spec;
  spec.max_jobs = 2;
  spec.thresholds = {25.0, 50.0};
  SweepOptions options;
  options.threads = 2;
  options.log_progress = false;
  const int before = Scheduler::global().num_threads();
  const SweepReport report = SweepRunner(options).run_jobs(
      expand_spec(spec), [&m, &ref](const JobSpec&) {
        heur::GapFindResult r;
        std::thread helper([&m, &ref, &r] {
          MipOptions opt;
          opt.threads = 3;
          const auto sol = BranchAndBound(opt).solve(m);
          r.status = sol.status;
          r.gap = sol.objective;
          // Bit-identical to the serial answer even from a helper
          // thread inside a sweep worker.
          EXPECT_EQ(sol.objective, ref.objective);
        });
        helper.join();
        r.volumes = {1.0};
        return r;
      });
  EXPECT_EQ(report.num_ok, 2);
  // The pool grew to at most max(before, sweep width, mip threads) —
  // the nested request did not multiply (2 sweep workers x 3 mip
  // threads would be 6).
  const int after = Scheduler::global().num_threads();
  EXPECT_EQ(after, std::max({before, 2, 3}));
}

}  // namespace
}  // namespace metaopt::runner
