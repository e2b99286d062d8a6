/**
 * @file
 * Statistics framework: scalars, vectors, histograms and derived
 * formulas, grouped per component and dumpable as text or CSV.
 *
 * The design follows gem5's stats package in miniature: a component
 * creates a StatGroup, registers named statistics in it, and the
 * top-level System walks all groups at dump time.
 */

#ifndef IFP_SIM_STATS_HH
#define IFP_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace ifp::sim {

namespace json { class Writer; }

/** A single named scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(double v) { val += v; return *this; }
    Scalar &operator=(double v) { val = v; return *this; }

    double value() const { return val; }
    void reset() { val = 0; }

  private:
    double val = 0;
};

/** A fixed-size vector of scalar statistics. */
class Vector
{
  public:
    void
    init(std::size_t size)
    {
        vals.assign(size, 0.0);
    }

    double &
    operator[](std::size_t idx)
    {
        ifp_assert(idx < vals.size(), "stat vector index %zu out of %zu",
                   idx, vals.size());
        return vals[idx];
    }

    double
    at(std::size_t idx) const
    {
        ifp_assert(idx < vals.size(), "stat vector index %zu out of %zu",
                   idx, vals.size());
        return vals[idx];
    }

    std::size_t size() const { return vals.size(); }
    double total() const;
    void reset() { vals.assign(vals.size(), 0.0); }

  private:
    std::vector<double> vals;
};

/** A simple linear histogram with overflow/underflow buckets. */
class Histogram
{
  public:
    /** Configure @p buckets buckets covering [min, max). */
    void init(double min, double max, std::size_t buckets);

    void sample(double value, std::uint64_t count = 1);

    std::uint64_t samples() const { return count; }
    double mean() const { return count ? sum / count : 0.0; }
    double minSeen() const { return count ? observedMin : 0.0; }
    double maxSeen() const { return count ? observedMax : 0.0; }
    std::size_t numBuckets() const { return counts.size(); }
    std::uint64_t bucket(std::size_t idx) const { return counts.at(idx); }
    std::uint64_t underflows() const { return underflow; }
    std::uint64_t overflows() const { return overflow; }
    void reset();

  private:
    double lo = 0.0;
    double hi = 1.0;
    double bucketWidth = 1.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double observedMin = 0.0;
    double observedMax = 0.0;
};

/** A statistic computed on demand from other values. */
class Formula
{
  public:
    using Fn = std::function<double()>;

    Formula() = default;
    explicit Formula(Fn fn) : fn(std::move(fn)) {}

    void operator=(Fn f) { fn = std::move(f); }
    double value() const { return fn ? fn() : 0.0; }

  private:
    Fn fn;
};

/**
 * A named collection of statistics belonging to one component.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : groupName(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return groupName; }

    Scalar &addScalar(const std::string &name, std::string desc = "");
    Vector &addVector(const std::string &name, std::size_t size,
                      std::string desc = "");
    Histogram &addHistogram(const std::string &name, double min,
                            double max, std::size_t buckets,
                            std::string desc = "");
    Formula &addFormula(const std::string &name, Formula::Fn fn,
                        std::string desc = "");

    /** Look up a registered scalar; panics when missing. */
    const Scalar &scalar(const std::string &name) const;
    const Vector &vector(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;
    double formulaValue(const std::string &name) const;

    /**
     * Non-panicking lookups: nullptr when the stat was never
     * registered. Prefer these over hasScalar-then-scalar double
     * lookups when a stat is legitimately optional.
     */
    const Scalar *tryScalar(const std::string &name) const;
    const Vector *tryVector(const std::string &name) const;

    bool hasScalar(const std::string &name) const;

    /** Write "group.stat value # desc" lines. */
    void dump(std::ostream &os) const;

    /**
     * Write the group as one JSON object:
     * {"name":..., "scalars":{...}, "vectors":{...},
     *  "histograms":{...}, "formulas":{...}}, compact.
     */
    void dumpJson(std::ostream &os) const;
    /** The same object as the next value of @p w. */
    void dumpJson(json::Writer &w) const;

    /** Reset every contained statistic (formulas are stateless). */
    void reset();

  private:
    template <typename T>
    struct Named
    {
        std::string name;
        std::string desc;
        // Deque-like stability: elements are never moved after creation.
        std::unique_ptr<T> stat;
    };

    std::string groupName;
    std::vector<Named<Scalar>> scalars;
    std::vector<Named<Vector>> vectors;
    std::vector<Named<Histogram>> histograms;
    std::vector<Named<Formula>> formulas;
};

} // namespace ifp::sim

#endif // IFP_SIM_STATS_HH
