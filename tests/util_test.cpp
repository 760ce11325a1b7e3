// Unit tests for the util module: checked math, tables, PRNG, CLI, and
// the step kernel's worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"
#include "util/table.hpp"

namespace torex {
namespace {

TEST(MathTest, FloorModHandlesNegatives) {
  EXPECT_EQ(floor_mod(7, 4), 3);
  EXPECT_EQ(floor_mod(-1, 4), 3);
  EXPECT_EQ(floor_mod(-4, 4), 0);
  EXPECT_EQ(floor_mod(-5, 4), 3);
  EXPECT_EQ(floor_mod(0, 4), 0);
  EXPECT_EQ(floor_mod<std::int64_t>(-13, 12), 11);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
}

TEST(MathTest, ExactDivChecksRemainder) {
  EXPECT_EQ(exact_div(12, 4), 3);
  EXPECT_THROW(exact_div(13, 4), std::logic_error);
  EXPECT_THROW(exact_div(13, 0), std::logic_error);
}

TEST(MathTest, IPow) {
  EXPECT_EQ(ipow(2, 0), 1);
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(4, 3), 64);
}

TEST(MathTest, Multiples) {
  EXPECT_TRUE(is_positive_multiple_of(12, 4));
  EXPECT_FALSE(is_positive_multiple_of(10, 4));
  EXPECT_FALSE(is_positive_multiple_of(0, 4));
  EXPECT_EQ(round_up_to_multiple(10, 4), 12);
  EXPECT_EQ(round_up_to_multiple(12, 4), 12);
  EXPECT_EQ(round_up_to_multiple(0, 4), 0);
}

TEST(MathTest, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(MathTest, RingDeltaPrefersShortSide) {
  EXPECT_EQ(ring_delta(0, 3, 12), 3);
  EXPECT_EQ(ring_delta(0, 9, 12), -3);
  EXPECT_EQ(ring_delta(0, 6, 12), 6);  // tie goes positive
  EXPECT_EQ(ring_delta(10, 2, 12), 4);
  EXPECT_EQ(ring_distance(0, 9, 12), 3);
  EXPECT_EQ(ring_distance(5, 5, 12), 0);
}

TEST(AssertTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(TOREX_REQUIRE(false, "nope"), std::invalid_argument);
  EXPECT_NO_THROW(TOREX_REQUIRE(true, "fine"));
}

TEST(AssertTest, CheckThrowsLogicError) {
  EXPECT_THROW(TOREX_CHECK(false, "nope"), std::logic_error);
  EXPECT_NO_THROW(TOREX_CHECK(true, "fine"));
}

TEST(TableTest, ThousandsSeparators) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(-1234567), "-1,234,567");
}

TEST(TableTest, CompactDoubleTrimsZeros) {
  EXPECT_EQ(compact_double(1.5), "1.5");
  EXPECT_EQ(compact_double(2.0), "2");
  EXPECT_EQ(compact_double(0.1250, 4), "0.125");
}

TEST(TableTest, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.set_align(0, TextTable::Align::kLeft);
  t.start_row().cell("alpha").cell(std::int64_t{1000});
  t.start_row().cell("b").cell(std::int64_t{2});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1,000"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, MarkdownHasHeaderRule) {
  TextTable t({"a", "b"});
  t.start_row().cell(std::int64_t{1}).cell(std::int64_t{2});
  std::ostringstream os;
  t.print_markdown(os);
  EXPECT_NE(os.str().find("|"), std::string::npos);
  EXPECT_NE(os.str().find("-"), std::string::npos);
}

TEST(PrngTest, DeterministicSequences) {
  SplitMix64 a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(PrngTest, NextBelowInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(PrngTest, ShufflePermutes) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  SplitMix64 rng(1);
  deterministic_shuffle(v, rng);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(CliTest, ParsesForms) {
  const char* argv[] = {"prog", "--rows=12", "--cols", "8", "--verbose"};
  auto flags = CliFlags::parse(5, argv, {"rows", "cols", "verbose", "unused"});
  EXPECT_EQ(flags.get_int("rows", 0), 12);
  EXPECT_EQ(flags.get_int("cols", 0), 8);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("unused", 99), 99);
  EXPECT_FALSE(flags.has("unused"));
}

TEST(CliTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--oops=1"};
  EXPECT_THROW(CliFlags::parse(2, argv, {"rows"}), std::invalid_argument);
}

TEST(CliTest, ParsesIntList) {
  const char* argv[] = {"prog", "--dims=12,8,4"};
  auto flags = CliFlags::parse(2, argv, {"dims"});
  EXPECT_EQ(flags.get_int_list("dims", {}), (std::vector<std::int64_t>{12, 8, 4}));
  EXPECT_EQ(flags.get_int_list("other", {1}), (std::vector<std::int64_t>{1}));
}

TEST(CliTest, StrictIntRejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--rows=12x", "--cols=8 ", "--depth=0x10", "--seed="};
  auto flags = CliFlags::parse(5, argv, {"rows", "cols", "depth", "seed"});
  EXPECT_THROW(flags.get_int("rows", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("cols", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("depth", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("seed", 0), std::invalid_argument);
}

TEST(CliTest, StrictIntRejectsOverflow) {
  const char* argv[] = {"prog", "--big=99999999999999999999"};
  auto flags = CliFlags::parse(2, argv, {"big"});
  EXPECT_THROW(flags.get_int("big", 0), std::invalid_argument);
}

TEST(CliTest, StrictIntAcceptsNegatives) {
  const char* argv[] = {"prog", "--delta=-7"};
  auto flags = CliFlags::parse(2, argv, {"delta"});
  EXPECT_EQ(flags.get_int("delta", 0), -7);
}

TEST(CliTest, BoundedIntEnforcesRange) {
  const char* argv[] = {"prog", "--rate=150", "--ok=42"};
  auto flags = CliFlags::parse(3, argv, {"rate", "ok"});
  EXPECT_THROW(flags.get_int("rate", 0, 0, 100), std::invalid_argument);
  EXPECT_EQ(flags.get_int("ok", 0, 0, 100), 42);
  // The error names the flag so sweep-script typos are attributable.
  try {
    flags.get_int("rate", 0, 0, 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
  }
}

TEST(CliTest, StrictDoubleRejectsGarbageAndNonFinite) {
  const char* argv[] = {"prog", "--p=0.5x", "--q=nan", "--r=inf", "--s=0.25"};
  auto flags = CliFlags::parse(5, argv, {"p", "q", "r", "s"});
  EXPECT_THROW(flags.get_double("p", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("q", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("r", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(flags.get_double("s", 0.0), 0.25);
}

TEST(CliTest, StrictIntListRejectsBadElements) {
  const char* argv[] = {"prog", "--a=1,2x,3", "--b=1,,2"};
  auto flags = CliFlags::parse(3, argv, {"a", "b"});
  EXPECT_THROW(flags.get_int_list("a", {}), std::invalid_argument);
  EXPECT_THROW(flags.get_int_list("b", {}), std::invalid_argument);
}

// --- StepPool -----------------------------------------------------------

TEST(StepPoolTest, EveryIndexRunsExactlyOnce) {
  for (const int participants : {1, 2, 4, 7}) {
    StepPool pool(participants);
    ASSERT_EQ(pool.participants(), participants);
    // Many stages back to back, so the two stage slots alternate.
    for (int stage = 0; stage < 50; ++stage) {
      for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                      std::size_t{64}, std::size_t{1000}}) {
        std::vector<std::atomic<int>> hits(count);
        std::atomic<int> bad_participant{0};
        StepPool::run(&pool, count, [&](std::size_t i, int who) {
          hits[i].fetch_add(1);
          if (who < 0 || who >= participants) bad_participant.fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count << " on "
                                       << participants << " participants";
        }
        EXPECT_EQ(bad_participant.load(), 0);
      }
    }
  }
}

TEST(StepPoolTest, NullPoolRunsInlineAsParticipantZero) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  StepPool::run(nullptr, 5, [&](std::size_t i, int who) {
    EXPECT_EQ(who, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(StepPoolTest, LowestFailingIndexIsRethrownOnTheCaller) {
  StepPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    const std::thread::id caller = std::this_thread::get_id();
    try {
      StepPool::run(&pool, 1000, [&](std::size_t i, int) {
        if (i == 977 || i == 301 || i == 640) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "the stage must rethrow";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "301");
    }
    EXPECT_EQ(std::this_thread::get_id(), caller);
  }
  // A throw from an index that only a worker runs: the caller is kept
  // busy on index 0 until some other participant has failed.
  StepPool fresh(4);
  std::atomic<bool> failed{false};
  EXPECT_THROW(StepPool::run(&fresh, 64,
                             [&](std::size_t i, int who) {
                               if (i == 0) {
                                 const auto deadline =
                                     std::chrono::steady_clock::now() + std::chrono::seconds(5);
                                 while (!failed.load() && std::chrono::steady_clock::now() < deadline) {
                                   std::this_thread::yield();
                                 }
                                 return;
                               }
                               if (who != 0) {
                                 failed.store(true);
                                 throw std::out_of_range("worker");
                               }
                             }),
               std::out_of_range);
}

TEST(StepPoolTest, AStuckParticipantsHomeRangeIsStolen) {
  // 32 indices on 4 participants: home ranges of 8, claimed one index
  // at a time. The others hold their first index until participant 1
  // has started, so participant 1 starts on index 8, the first of its
  // home range — and is held there until every other index has run. The
  // rest of its range must be stolen by the others.
  constexpr std::size_t kCount = 32;
  constexpr std::size_t kStuck = 8;
  StepPool pool(4);
  ASSERT_EQ(pool.helpers(), 3);
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<std::atomic<int>> ran_on(kCount);
  std::atomic<bool> owner_started{false};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> timed_out{false};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_for = [&](const auto& ready) {
    while (!ready()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };
  StepPool::run(&pool, kCount, [&](std::size_t i, int who) {
    if (who == 1) {
      owner_started.store(true);
    } else {
      wait_for([&] { return owner_started.load(); });
    }
    ran_on[i].store(who);
    hits[i].fetch_add(1);
    if (who == 1 && i == kStuck) wait_for([&] { return done.load() == kCount - 1; });
    done.fetch_add(1);
  });
  ASSERT_FALSE(timed_out.load()) << "the stage waited for its stuck participant";
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_EQ(ran_on[kStuck].load(), 1);
  for (std::size_t i = kStuck + 1; i < 2 * kStuck; ++i) {
    EXPECT_NE(ran_on[i].load(), 1) << "index " << i << " waited for its stuck owner";
  }
}

TEST(StepPoolTest, ReusableAfterAThrow) {
  StepPool pool(4);
  EXPECT_THROW(StepPool::run(&pool, 100,
                             [](std::size_t i, int) {
                               if (i % 10 == 3) throw std::logic_error("stage failed");
                             }),
               std::logic_error);
  std::vector<std::atomic<int>> hits(100);
  StepPool::run(&pool, hits.size(), [&](std::size_t i, int) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StepPoolTest, StalledStagesShedWorkersAndHealthyOnesWinThemBack) {
  // Workers that stop mid-chunk (here: sleep, as a preempted core would)
  // hold each stage up; the pool sheds them until the caller runs alone,
  // and the results never change.
  StepPool pool(4);
  ASSERT_EQ(pool.helpers(), 3);
  for (int stage = 0; stage < 50 && pool.helpers() > 0; ++stage) {
    std::vector<std::atomic<int>> hits(64);
    StepPool::run(&pool, hits.size(), [&](std::size_t i, int who) {
      if (who != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      } else {
        // Slow enough that the workers claim chunks before the caller
        // has taken them all.
        const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(10);
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  ASSERT_EQ(pool.helpers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  StepPool::run(&pool, 100, [&](std::size_t, int who) {
    EXPECT_EQ(who, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  // Healthy stages bring the workers back, one at a time.
  for (int stage = 0; stage < 200; ++stage) StepPool::run(&pool, 8, [](std::size_t, int) {});
  EXPECT_GE(pool.helpers(), 1);
}

/// Threads of this process, or -1 where /proc is unavailable.
long thread_count() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return -1;
  return static_cast<long>(std::distance(tasks, std::filesystem::directory_iterator{}));
}

/// The thread count once it reaches `expected`, or the last count read
/// when 2 s pass first. A thread that `join` has returned for can stay
/// listed in /proc/self/task for a moment, so one read can race the
/// kernel; a worker that really leaked still shows after the deadline.
long thread_count_settled(long expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  long count = thread_count();
  while (count != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = thread_count();
  }
  return count;
}

TEST(StepPoolTest, DestructorJoinsIdleWorkers) {
  const long before = thread_count();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task to count threads";
  {
    StepPool never_ran(4);
    EXPECT_EQ(thread_count_settled(before + 3), before + 3);
  }
  EXPECT_EQ(thread_count_settled(before), before);
  {
    StepPool pool(4);
    StepPool::run(&pool, 100, [](std::size_t, int) {});
    // Long past the spin: every worker is blocked when the pool dies.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(thread_count_settled(before), before);
}

}  // namespace
}  // namespace torex
