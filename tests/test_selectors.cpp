#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "selectors/gf.hpp"
#include "selectors/kautz_singleton.hpp"
#include "selectors/randomized_ssf.hpp"
#include "selectors/round_robin_family.hpp"
#include "selectors/ssf.hpp"

namespace dualrad {
namespace {

// ------------------------------------------------------------------- GF(q)

TEST(Gf, Primality) {
  EXPECT_FALSE(gf::is_prime(0));
  EXPECT_FALSE(gf::is_prime(1));
  EXPECT_TRUE(gf::is_prime(2));
  EXPECT_TRUE(gf::is_prime(3));
  EXPECT_FALSE(gf::is_prime(4));
  EXPECT_TRUE(gf::is_prime(97));
  EXPECT_FALSE(gf::is_prime(91));  // 7 * 13
  EXPECT_TRUE(gf::is_prime(7919));
}

TEST(Gf, NextPrime) {
  EXPECT_EQ(gf::next_prime(2), 2u);
  EXPECT_EQ(gf::next_prime(8), 11u);
  EXPECT_EQ(gf::next_prime(97), 97u);
  EXPECT_EQ(gf::next_prime(98), 101u);
}

TEST(Gf, FieldArithmetic) {
  const gf::PrimeField f(7);
  EXPECT_EQ(f.add(5, 4), 2u);
  EXPECT_EQ(f.mul(5, 4), 6u);
  EXPECT_EQ(f.mul(0, 6), 0u);
}

TEST(Gf, PolynomialEvaluationHorner) {
  const gf::PrimeField f(11);
  // p(x) = 3 + 2x + x^2; p(4) = 3 + 8 + 16 = 27 = 5 (mod 11)
  EXPECT_EQ(f.eval({3, 2, 1}, 4), 5u);
  EXPECT_EQ(f.eval({3, 2, 1}, 0), 3u);
}

TEST(Gf, BaseQDigits) {
  const auto d = gf::base_q_digits(23, 5, 3);  // 23 = 3 + 4*5
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[1], 4u);
  EXPECT_EQ(d[2], 0u);
  EXPECT_THROW(gf::base_q_digits(125, 5, 3), std::invalid_argument);
}

TEST(Gf, FieldRejectsComposite) {
  EXPECT_THROW(gf::PrimeField(10), std::invalid_argument);
}

// --------------------------------------------------------------- SsfFamily

TEST(SsfFamily, MembershipAndSets) {
  const SsfFamily f(5, {{0, 2}, {1, 3, 4}, {2}});
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.contains(0, 2));
  EXPECT_FALSE(f.contains(0, 1));
  EXPECT_EQ(f.max_set_size(), 3u);
  EXPECT_EQ(f.sets_containing(2).size(), 2u);
}

TEST(SsfFamily, RejectsBadElements) {
  EXPECT_THROW(SsfFamily(3, {{0, 5}}), std::invalid_argument);
  EXPECT_THROW(SsfFamily(3, {{1, 1}}), std::invalid_argument);
}

TEST(SsfVerify, RoundRobinIsNNSsf) {
  for (NodeId n : {2, 5, 9}) {
    const SsfFamily f = round_robin_family(n);
    EXPECT_TRUE(is_strongly_selective(f, n)) << n;
  }
}

TEST(SsfVerify, SingleSetIsOnlyN1Ssf) {
  const SsfFamily f(4, {{0, 1, 2, 3}});
  EXPECT_TRUE(is_strongly_selective(f, 1));
  EXPECT_FALSE(is_strongly_selective(f, 2));
}

TEST(SsfVerify, DetectsMissingElement) {
  // Element 3 is in no set: even Z = {3} fails.
  const SsfFamily f(4, {{0}, {1}, {2}});
  EXPECT_FALSE(is_strongly_selective(f, 1));
}

TEST(SsfVerify, DetectsCoverableElement) {
  // z = 0 appears only with 1 or with 2: Z = {0,1,2} never isolates 0.
  const SsfFamily f(3, {{0, 1}, {0, 2}, {1}, {2}});
  EXPECT_TRUE(is_strongly_selective(f, 2));
  EXPECT_FALSE(is_strongly_selective(f, 3));
}

TEST(SsfVerify, UnselectedInReportsExactFailures) {
  const SsfFamily f(3, {{0, 1}, {0, 2}, {1}, {2}});
  const auto failures = unselected_in(f, {0, 1, 2});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures.front(), 0);
  EXPECT_TRUE(unselected_in(f, {0, 1}).empty());
}

TEST(SsfVerify, SampleViolationsSeesPlantedFailure) {
  const SsfFamily bad(3, {{0, 1}, {0, 2}, {1}, {2}});
  EXPECT_GT(sample_violations(bad, 3, 200, 7), 0u);
  const SsfFamily good = round_robin_family(3);
  EXPECT_EQ(sample_violations(good, 3, 200, 7), 0u);
}

// ---------------------------------------------------------- KautzSingleton

TEST(KautzSingleton, PlanSatisfiesConstraints) {
  const auto plan = kautz_singleton_plan(100, 4);
  ASSERT_FALSE(plan.round_robin_fallback);
  EXPECT_TRUE(gf::is_prime(plan.q));
  // q^m >= n and q > (k-1)(m-1)
  double power = 1;
  for (std::uint32_t i = 0; i < plan.m; ++i) power *= plan.q;
  EXPECT_GE(power, 100);
  EXPECT_GT(plan.q, 3u * (plan.m - 1));
}

class KautzSingletonExact
    : public ::testing::TestWithParam<std::tuple<NodeId, NodeId>> {};

TEST_P(KautzSingletonExact, IsStronglySelective) {
  const auto [n, k] = GetParam();
  const SsfFamily f = kautz_singleton_ssf(n, k);
  EXPECT_TRUE(is_strongly_selective(f, k)) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    SmallExhaustive, KautzSingletonExact,
    ::testing::Values(std::tuple{8, 2}, std::tuple{8, 3}, std::tuple{12, 2},
                      std::tuple{16, 2}, std::tuple{16, 3}, std::tuple{16, 4},
                      std::tuple{20, 3}, std::tuple{24, 2}, std::tuple{32, 4},
                      std::tuple{10, 1}, std::tuple{6, 6}, std::tuple{9, 8}));

TEST(KautzSingleton, LargeSampledVerification) {
  // Includes the SSF ablation's grid (n = 1024, k = 2..32). Size bound: a
  // prime q in ((k-1)(m-1), 2((k-1)(m-1)+1)] exists (Bertrand) and
  // m = ceil(log2 n) digits suffice, so q^2 = O(k^2 log^2 n), capped at n.
  for (const auto& [n, k] :
       {std::tuple<NodeId, NodeId>{256, 8}, {512, 4}, {1024, 2}, {1024, 4},
        {1024, 8}, {1024, 16}, {1024, 32}}) {
    const SsfFamily f = kautz_singleton_ssf(n, k);
    EXPECT_EQ(sample_violations(f, k, 300, 17), 0u) << n << " " << k;
    const auto log_n = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(n))));
    const std::size_t q_max = 2 * ((k - 1) * (log_n - 1) + 1);
    EXPECT_LE(f.size(), std::min<std::size_t>(n, q_max * q_max))
        << n << " " << k;
  }
}

TEST(KautzSingleton, SizeIsMinNOrPolyKLog) {
  // For large k relative to n, fall back to round robin of size n.
  const SsfFamily big_k = kautz_singleton_ssf(64, 64);
  EXPECT_EQ(big_k.size(), 64u);
  // For small k, size q^2 should beat n when n is large enough.
  const SsfFamily small_k = kautz_singleton_ssf(4096, 2);
  EXPECT_LT(small_k.size(), 4096u);
}

TEST(KautzSingleton, K1IsSingleSet) {
  const SsfFamily f = kautz_singleton_ssf(50, 1);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(is_strongly_selective(f, 1));
}

// ------------------------------------------------------------- Randomized

TEST(RandomizedSsf, SmallInstancesVerifyExactly) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const SsfFamily f = randomized_ssf(24, 2, {.factor = 6.0, .seed = seed});
    EXPECT_TRUE(is_strongly_selective(f, 2)) << "seed " << seed;
  }
}

TEST(RandomizedSsf, MatchesExistentialSizeShape) {
  // The SSF ablation's grid: O(k^2 log n) sets, capped at n.
  const NodeId n = 1024;
  for (const NodeId k : {2, 4, 8, 16, 32}) {
    const SsfFamily f = randomized_ssf(n, k, {.factor = 4.0});
    const auto bound =
        static_cast<std::size_t>(std::ceil(4.0 * k * k * std::log(n + 1.0)));
    EXPECT_LE(f.size(), std::min<std::size_t>(n, bound)) << k;
    EXPECT_EQ(sample_violations(f, k, 200, 23), 0u) << k;
  }
}

TEST(RandomizedSsf, FallsBackToRoundRobinWhenCheaper) {
  const SsfFamily f = randomized_ssf(32, 30, {.factor = 4.0});
  EXPECT_EQ(f.size(), 32u);
  EXPECT_TRUE(is_strongly_selective(f, 30));
}

TEST(RandomizedSsf, ProviderIsDeterministicGivenSeed) {
  const auto provider =
      make_randomized_ssf_provider({.factor = 4.0, .seed = 9});
  const SsfFamily a = provider(64, 4);
  const SsfFamily b = provider(64, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.set(i), b.set(i));
  }
}

}  // namespace
}  // namespace dualrad
