/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace ifp::sim {
namespace {

TEST(Stats, ScalarArithmetic)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s", "a scalar");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s = 7.0;
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, VectorIndexingAndTotal)
{
    StatGroup g("g");
    Vector &v = g.addVector("v", 4);
    v[0] = 1.0;
    v[2] = 2.0;
    v[3] += 3.0;
    EXPECT_DOUBLE_EQ(v.total(), 6.0);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_DOUBLE_EQ(v.at(1), 0.0);
    v.reset();
    EXPECT_DOUBLE_EQ(v.total(), 0.0);
}

TEST(Stats, HistogramBuckets)
{
    StatGroup g("g");
    Histogram &h = g.addHistogram("h", 0.0, 100.0, 10);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(15.0);
    h.sample(99.9);
    h.sample(-1.0);
    h.sample(100.0);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.underflows(), 1u);
    EXPECT_EQ(h.overflows(), 1u);
    EXPECT_DOUBLE_EQ(h.minSeen(), -1.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 100.0);
}

TEST(Stats, HistogramMean)
{
    StatGroup g("g");
    Histogram &h = g.addHistogram("h", 0.0, 10.0, 5);
    h.sample(2.0);
    h.sample(4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    h.sample(6.0, 2);  // weighted sample
    EXPECT_DOUBLE_EQ(h.mean(), 4.5);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup g("g");
    Scalar &num = g.addScalar("num");
    Scalar &den = g.addScalar("den");
    g.addFormula("ratio", [&] {
        return den.value() == 0 ? 0.0 : num.value() / den.value();
    });
    EXPECT_DOUBLE_EQ(g.formulaValue("ratio"), 0.0);
    num = 6;
    den = 3;
    EXPECT_DOUBLE_EQ(g.formulaValue("ratio"), 2.0);
}

TEST(Stats, LookupByName)
{
    StatGroup g("grp");
    g.addScalar("a");
    g.addScalar("b");
    EXPECT_TRUE(g.hasScalar("a"));
    EXPECT_FALSE(g.hasScalar("c"));
    const Scalar &b = g.scalar("b");
    EXPECT_DOUBLE_EQ(b.value(), 0.0);
}

TEST(Stats, DumpContainsGroupPrefixAndValues)
{
    StatGroup g("mygroup");
    Scalar &s = g.addScalar("counter", "counts things");
    s = 42;
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("mygroup.counter"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("counts things"), std::string::npos);
}

TEST(Stats, StableReferencesAcrossRegistration)
{
    // Stat references must stay valid as more stats are added.
    StatGroup g("g");
    Scalar &first = g.addScalar("first");
    for (int i = 0; i < 100; ++i)
        g.addScalar("s" + std::to_string(i));
    first = 5;
    EXPECT_DOUBLE_EQ(g.scalar("first").value(), 5.0);
}

TEST(Stats, TryLookupReturnsNullOnMiss)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("present");
    s = 7;
    Vector &v = g.addVector("vec", 3);
    v[1] = 2;

    const Scalar *found = g.tryScalar("present");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->value(), 7.0);
    EXPECT_EQ(g.tryScalar("absent"), nullptr);
    // Kind mismatches miss too: a vector is not a scalar.
    EXPECT_EQ(g.tryScalar("vec"), nullptr);

    const Vector *vec = g.tryVector("vec");
    ASSERT_NE(vec, nullptr);
    EXPECT_DOUBLE_EQ(vec->at(1), 2.0);
    EXPECT_EQ(g.tryVector("present"), nullptr);
    EXPECT_EQ(g.tryVector("absent"), nullptr);
}

TEST(Stats, DumpJsonIsParseableShape)
{
    StatGroup g("grp");
    Scalar &s = g.addScalar("count", "a counter");
    s = 3;
    Vector &v = g.addVector("vec", 2);
    v[0] = 1;
    v[1] = 2.5;
    Histogram &h = g.addHistogram("hist", 0, 10, 2);
    h.sample(1);
    h.sample(9);

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"grp\""), std::string::npos);
    EXPECT_NE(out.find("\"count\":3"), std::string::npos);
    EXPECT_NE(out.find("\"vec\":[1,2.5]"), std::string::npos);
    EXPECT_NE(out.find("\"hist\""), std::string::npos);
}

TEST(Stats, DumpJsonBytesArePinned)
{
    // bench/e2e digests these bytes against its reference.json, so
    // the exact string is part of the contract: a change to the JSON
    // writer's number rule or layout must fail here first.
    StatGroup g("grp");
    Scalar &s = g.addScalar("count", "a counter");
    s = 3;
    Vector &v = g.addVector("vec", 3);
    v[0] = 1;
    v[1] = 2.5;
    v[2] = 1e20;
    Histogram &h = g.addHistogram("hist", 0, 10, 2);
    h.sample(1);
    h.sample(2);
    h.sample(12);
    g.addFormula("third", [] { return 1.0 / 3.0; });

    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(),
              "{\"name\":\"grp\",\"scalars\":{\"count\":3},"
              "\"vectors\":{\"vec\":[1,2.5,1e+20]},"
              "\"histograms\":{\"hist\":{\"samples\":3,\"mean\":5,"
              "\"min\":1,\"max\":12,\"underflows\":0,\"overflows\":1,"
              "\"buckets\":[2,0]}},"
              "\"formulas\":{\"third\":0.33333333333333331}}");
}

TEST(Stats, GroupReset)
{
    StatGroup g("g");
    Scalar &s = g.addScalar("s");
    Vector &v = g.addVector("v", 2);
    Histogram &h = g.addHistogram("h", 0, 10, 2);
    s = 1;
    v[0] = 2;
    h.sample(5);
    g.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_DOUBLE_EQ(v.total(), 0.0);
    EXPECT_EQ(h.samples(), 0u);
}

} // anonymous namespace
} // namespace ifp::sim
