#include "sim/stats.hh"

#include <iomanip>
#include <memory>

#include "sim/json.hh"

namespace ifp::sim {

double
Vector::total() const
{
    double sum = 0.0;
    for (double v : vals)
        sum += v;
    return sum;
}

void
Histogram::init(double min, double max, std::size_t buckets)
{
    ifp_assert(max > min, "histogram range must be non-empty");
    ifp_assert(buckets > 0, "histogram needs at least one bucket");
    lo = min;
    hi = max;
    counts.assign(buckets, 0);
    bucketWidth = (hi - lo) / static_cast<double>(buckets);
    reset();
}

void
Histogram::sample(double value, std::uint64_t n)
{
    if (count == 0) {
        observedMin = value;
        observedMax = value;
    } else {
        observedMin = std::min(observedMin, value);
        observedMax = std::max(observedMax, value);
    }
    count += n;
    sum += value * static_cast<double>(n);

    if (value < lo) {
        underflow += n;
    } else if (value >= hi) {
        overflow += n;
    } else {
        auto idx = static_cast<std::size_t>((value - lo) / bucketWidth);
        if (idx >= counts.size())
            idx = counts.size() - 1;
        counts[idx] += n;
    }
}

void
Histogram::reset()
{
    counts.assign(counts.size(), 0);
    underflow = 0;
    overflow = 0;
    count = 0;
    sum = 0.0;
    observedMin = 0.0;
    observedMax = 0.0;
}

Scalar &
StatGroup::addScalar(const std::string &name, std::string desc)
{
    scalars.push_back({name, std::move(desc),
                       std::make_unique<Scalar>()});
    return *scalars.back().stat;
}

Vector &
StatGroup::addVector(const std::string &name, std::size_t size,
                     std::string desc)
{
    vectors.push_back({name, std::move(desc),
                       std::make_unique<Vector>()});
    vectors.back().stat->init(size);
    return *vectors.back().stat;
}

Histogram &
StatGroup::addHistogram(const std::string &name, double min, double max,
                        std::size_t buckets, std::string desc)
{
    histograms.push_back({name, std::move(desc),
                          std::make_unique<Histogram>()});
    histograms.back().stat->init(min, max, buckets);
    return *histograms.back().stat;
}

Formula &
StatGroup::addFormula(const std::string &name, Formula::Fn fn,
                      std::string desc)
{
    formulas.push_back({name, std::move(desc),
                        std::make_unique<Formula>(std::move(fn))});
    return *formulas.back().stat;
}

const Scalar *
StatGroup::tryScalar(const std::string &name) const
{
    for (const auto &entry : scalars) {
        if (entry.name == name)
            return entry.stat.get();
    }
    return nullptr;
}

const Vector *
StatGroup::tryVector(const std::string &name) const
{
    for (const auto &entry : vectors) {
        if (entry.name == name)
            return entry.stat.get();
    }
    return nullptr;
}

const Scalar &
StatGroup::scalar(const std::string &name) const
{
    if (const Scalar *s = tryScalar(name))
        return *s;
    ifp_panic("no scalar stat '%s' in group '%s'", name.c_str(),
              groupName.c_str());
}

bool
StatGroup::hasScalar(const std::string &name) const
{
    return tryScalar(name) != nullptr;
}

const Vector &
StatGroup::vector(const std::string &name) const
{
    if (const Vector *v = tryVector(name))
        return *v;
    ifp_panic("no vector stat '%s' in group '%s'", name.c_str(),
              groupName.c_str());
}

const Histogram &
StatGroup::histogram(const std::string &name) const
{
    for (const auto &entry : histograms) {
        if (entry.name == name)
            return *entry.stat;
    }
    ifp_panic("no histogram stat '%s' in group '%s'", name.c_str(),
              groupName.c_str());
}

double
StatGroup::formulaValue(const std::string &name) const
{
    for (const auto &entry : formulas) {
        if (entry.name == name)
            return entry.stat->value();
    }
    ifp_panic("no formula stat '%s' in group '%s'", name.c_str(),
              groupName.c_str());
}

void
StatGroup::dump(std::ostream &os) const
{
    auto emit = [&](const std::string &name, double value,
                    const std::string &desc) {
        os << groupName << '.' << std::left << std::setw(32) << name
           << ' ' << std::right << std::setw(16) << value;
        if (!desc.empty())
            os << "  # " << desc;
        os << '\n';
    };

    for (const auto &entry : scalars)
        emit(entry.name, entry.stat->value(), entry.desc);
    for (const auto &entry : vectors) {
        for (std::size_t i = 0; i < entry.stat->size(); ++i) {
            emit(entry.name + "[" + std::to_string(i) + "]",
                 entry.stat->at(i), entry.desc);
        }
        emit(entry.name + ".total", entry.stat->total(), entry.desc);
    }
    for (const auto &entry : histograms) {
        emit(entry.name + ".samples",
             static_cast<double>(entry.stat->samples()), entry.desc);
        emit(entry.name + ".mean", entry.stat->mean(), entry.desc);
        emit(entry.name + ".min", entry.stat->minSeen(), entry.desc);
        emit(entry.name + ".max", entry.stat->maxSeen(), entry.desc);
    }
    for (const auto &entry : formulas)
        emit(entry.name, entry.stat->value(), entry.desc);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    json::Writer w(os);
    dumpJson(w);
}

void
StatGroup::dumpJson(json::Writer &w) const
{
    w.beginObject().key("name").value(groupName);
    w.key("scalars").beginObject();
    for (const auto &entry : scalars)
        w.key(entry.name).value(entry.stat->value());
    w.endObject().key("vectors").beginObject();
    for (const auto &entry : vectors) {
        w.key(entry.name).beginArray();
        for (std::size_t i = 0; i < entry.stat->size(); ++i)
            w.value(entry.stat->at(i));
        w.endArray();
    }
    w.endObject().key("histograms").beginObject();
    for (const auto &entry : histograms) {
        const Histogram &h = *entry.stat;
        w.key(entry.name).beginObject();
        w.key("samples").value(h.samples());
        w.key("mean").value(h.mean());
        w.key("min").value(h.minSeen());
        w.key("max").value(h.maxSeen());
        w.key("underflows").value(h.underflows());
        w.key("overflows").value(h.overflows());
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < h.numBuckets(); ++i)
            w.value(h.bucket(i));
        w.endArray().endObject();
    }
    w.endObject().key("formulas").beginObject();
    for (const auto &entry : formulas)
        w.key(entry.name).value(entry.stat->value());
    w.endObject().endObject();
}

void
StatGroup::reset()
{
    for (auto &entry : scalars)
        entry.stat->reset();
    for (auto &entry : vectors)
        entry.stat->reset();
    for (auto &entry : histograms)
        entry.stat->reset();
}

} // namespace ifp::sim
