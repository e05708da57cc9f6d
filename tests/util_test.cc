// Unit tests for src/util/: status, rng, strings, stats, flags, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace indaas {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(ProtocolError("x").code(), StatusCode::kProtocolError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HelperReturningError() { return InternalError("inner"); }
Result<int> HelperUsingAssignOrReturn() {
  INDAAS_ASSIGN_OR_RETURN(int v, HelperReturningError());
  return v + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> r = HelperUsingAssignOrReturn();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// --- Rng ---

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextBool(0.3)) {
      ++hits;
    }
  }
  double freq = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(freq, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Split();
  EXPECT_NE(parent.Next(), child.Next());
}

// --- Strings ---

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitAndTrimDropsEmpties) {
  auto parts = SplitAndTrim(" a , , b ", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(3.0 * 1024 * 1024), "3.00 MB");
}

TEST(StringsTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(0.0005), "500.0 us");
  EXPECT_EQ(HumanSeconds(0.5), "500.0 ms");
  EXPECT_EQ(HumanSeconds(3.21), "3.21 s");
  EXPECT_EQ(HumanSeconds(600), "10.0 min");
}

// --- Stats ---

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, EmptyStats) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, TextTableRenders) {
  TextTable t({"Rank", "Deployment", "Jaccard"});
  t.AddRow({"1", "Cloud2 & Cloud4", "0.1419"});
  t.AddRow({"2", "Cloud2 & Cloud3", "0.1547"});
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("Rank"), std::string::npos);
  EXPECT_NE(rendered.find("Cloud2 & Cloud4"), std::string::npos);
  EXPECT_NE(rendered.find("0.1547"), std::string::npos);
}

// --- Flags ---

TEST(FlagsTest, ParsesAllTypes) {
  int64_t n = 0;
  double d = 0;
  bool b = false;
  std::string s;
  FlagSet flags;
  flags.AddInt("n", &n, "count");
  flags.AddDouble("d", &d, "ratio");
  flags.AddBool("b", &b, "toggle");
  flags.AddString("s", &s, "name");
  const char* argv[] = {"prog", "--n=5", "--d", "2.5", "--b", "--s=hello"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 5);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
}

TEST(FlagsTest, BooleanNegation) {
  bool b = true;
  FlagSet flags;
  flags.AddBool("verbose", &b, "");
  const char* argv[] = {"prog", "--no-verbose"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(b);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsMalformedInt) {
  int64_t n = 0;
  FlagSet flags;
  flags.AddInt("n", &n, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

// --- ThreadPool ---

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpace) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ParallelForChunkedCoversIndexSpaceOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelForChunked(1000, 64, [&hits](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end - begin, 64u);
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForChunkedZeroGrainSplitsPerWorker) {
  ThreadPool pool(3);
  std::atomic<int> chunks{0};
  std::atomic<size_t> covered{0};
  pool.ParallelForChunked(100, 0, [&](size_t begin, size_t end) {
    chunks.fetch_add(1);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 100u);
  EXPECT_LE(chunks.load(), 3);
}

TEST(ThreadPoolTest, ParallelForChunkedZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelForChunked(0, 8, [](size_t, size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ParallelForChunkedGrainLargerThanN) {
  ThreadPool pool(2);
  std::atomic<int> chunks{0};
  pool.ParallelForChunked(5, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPoolTest, WaitThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelForFromAPoolTaskRunsInline) {
  // Deleted only on success: if the nested call deadlocked, ~ThreadPool
  // would hang joining the stuck worker instead of letting the test fail.
  ThreadPool* pool = new ThreadPool(2);
  std::promise<bool> done;
  pool->Submit([&] {
    EXPECT_TRUE(pool->OnWorkerThread());
    const std::thread::id self = std::this_thread::get_id();
    std::vector<size_t> order;  // no lock: inline means one thread, in order
    pool->ParallelFor(50, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      order.push_back(i);
    });
    std::vector<std::pair<size_t, size_t>> chunks;
    pool->ParallelForChunked(100, 16, [&](size_t begin, size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      chunks.emplace_back(begin, end);
    });
    bool in_order = order.size() == 50 && std::is_sorted(order.begin(), order.end()) &&
                    chunks.size() == 7 && std::is_sorted(chunks.begin(), chunks.end()) &&
                    chunks.back() == std::make_pair(size_t{96}, size_t{100});
    done.set_value(in_order);
  });
  std::future<bool> result = done.get_future();
  ASSERT_EQ(result.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "nested ParallelFor did not complete";
  EXPECT_TRUE(result.get());
  EXPECT_FALSE(pool->OnWorkerThread());
  delete pool;
}

TEST(ThreadPoolTest, ConcurrentCallersWaitOnlyForTheirOwnChunks) {
  ThreadPool pool(2);
  std::promise<void> long_started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<size_t> a_done{0};
  std::atomic<bool> a_returned{false};
  // Caller A: one chunk blocks until released; it is A's long task.
  std::thread a([&] {
    pool.ParallelForChunked(4, 1, [&](size_t begin, size_t) {
      if (begin == 0) {
        long_started.set_value();
        released.wait();
      }
      a_done.fetch_add(1);
    });
    EXPECT_EQ(a_done.load(), 4u) << "A returned before all of its chunks finished";
    a_returned = true;
  });
  long_started.get_future().wait();
  // Caller B, while A's long chunk still runs on the shared pool.
  std::atomic<size_t> b_done{0};
  std::future<size_t> b = std::async(std::launch::async, [&] {
    pool.ParallelForChunked(64, 1, [&](size_t, size_t) { b_done.fetch_add(1); });
    return b_done.load();
  });
  const bool b_finished = b.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  const bool a_still_blocked = !a_returned.load();
  release.set_value();
  a.join();
  EXPECT_TRUE(b_finished) << "B waited for A's long task";
  EXPECT_TRUE(a_still_blocked);
  EXPECT_EQ(b.get(), 64u) << "B returned before all of its chunks finished";
  EXPECT_EQ(a_done.load(), 4u);
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfWorkerCount) {
  const std::vector<std::pair<size_t, size_t>> shapes = {
      {1, 1}, {7, 3}, {100, 16}, {1000, 64}, {4097, 1024}, {33, 40}};
  for (const auto& [n, grain] : shapes) {
    std::vector<std::vector<std::pair<size_t, size_t>>> seen;
    for (size_t workers : {size_t{1}, size_t{2}, size_t{7}}) {
      ThreadPool pool(workers);
      std::mutex mu;
      std::vector<std::pair<size_t, size_t>> chunks;
      pool.ParallelForChunked(n, grain, [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end);
      });
      std::sort(chunks.begin(), chunks.end());
      seen.push_back(std::move(chunks));
    }
    EXPECT_EQ(seen[0], seen[1]) << "n " << n << " grain " << grain;
    EXPECT_EQ(seen[0], seen[2]) << "n " << n << " grain " << grain;
    ASSERT_FALSE(seen[0].empty());
    EXPECT_EQ(seen[0].front().first, 0u);
    EXPECT_EQ(seen[0].back().second, n);
  }
}

TEST(ThreadPoolTest, ComputePoolIsOneHardwareSizedPool) {
  ThreadPool& pool = ComputePool();
  EXPECT_EQ(&pool, &ComputePool());
  EXPECT_EQ(pool.num_threads(),
            std::max<size_t>(1, std::thread::hardware_concurrency()));
  std::atomic<size_t> covered{0};
  pool.ParallelForChunked(10000, 100, [&](size_t begin, size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 10000u);
}

}  // namespace
}  // namespace indaas
