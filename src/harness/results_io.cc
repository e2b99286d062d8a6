#include "harness/results_io.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/trace_sink.hh"

namespace ifp::harness {

namespace {

/** Minimal JSON string escaping (names are ASCII identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

} // anonymous namespace

void
writeResultJson(std::ostream &os, const Experiment &exp,
                const core::RunResult &r)
{
    os << "{";
    os << "\"workload\":\"" << jsonEscape(exp.workload) << "\",";
    os << "\"policy\":\"" << core::policyName(exp.policy) << "\",";
    os << "\"oversubscribed\":"
       << (exp.runCfg.faultPlan.losesCu() ? "true" : "false") << ",";
    os << "\"numWgs\":" << exp.params.numWgs << ",";
    os << "\"wgsPerGroup\":" << exp.params.wgsPerGroup << ",";
    os << "\"iters\":" << exp.params.iters << ",";
    os << "\"completed\":" << (r.completed ? "true" : "false") << ",";
    os << "\"deadlocked\":" << (r.deadlocked ? "true" : "false")
       << ",";
    os << "\"verdict\":\"" << core::verdictName(r.verdict) << "\",";
    os << "\"validated\":" << (r.validated ? "true" : "false") << ",";
    os << "\"gpuCycles\":" << r.gpuCycles << ",";
    os << "\"instructions\":" << r.instructions << ",";
    os << "\"atomicInstructions\":" << r.atomicInstructions << ",";
    os << "\"waitingAtomics\":" << r.waitingAtomics << ",";
    os << "\"armWaits\":" << r.armWaits << ",";
    os << "\"sleeps\":" << r.sleeps << ",";
    os << "\"contextSaves\":" << r.contextSaves << ",";
    os << "\"contextRestores\":" << r.contextRestores << ",";
    os << "\"forcedPreemptions\":" << r.forcedPreemptions << ",";
    os << "\"condResumesAll\":" << r.condResumesAll << ",";
    os << "\"condResumesOne\":" << r.condResumesOne << ",";
    os << "\"cpRescues\":" << r.cpRescues << ",";
    os << "\"predictedResumes\":" << r.predictedResumes << ",";
    os << "\"mispredictedResumes\":" << r.mispredictedResumes << ",";
    os << "\"spills\":" << r.spills << ",";
    os << "\"logFullRetries\":" << r.logFullRetries << ",";
    os << "\"faultPlan\":\"" << jsonEscape(exp.runCfg.faultPlan.name)
       << "\",";
    os << "\"chaosSeed\":" << exp.runCfg.faultPlan.seed << ",";
    os << "\"injectedFaults\":" << r.injectedFaults << ",";
    os << "\"droppedResumes\":" << r.droppedResumes << ",";
    os << "\"delayedResumes\":" << r.delayedResumes << ",";
    os << "\"lostWakeups\":[";
    for (std::size_t i = 0; i < r.lostWakeups.size(); ++i) {
        const core::LostWakeupRecord &lw = r.lostWakeups[i];
        if (i)
            os << ",";
        os << "{\"wg\":" << lw.wgId << ",\"addr\":" << lw.addr
           << ",\"expected\":" << lw.expected
           << ",\"heldCycles\":" << lw.heldCycles << "}";
    }
    os << "],";
    os << "\"faultRecoveries\":[";
    for (std::size_t i = 0; i < r.faultRecoveries.size(); ++i) {
        const core::FaultRecovery &fr = r.faultRecoveries[i];
        if (i)
            os << ",";
        os << "{\"restoreCycle\":" << fr.restoreCycle
           << ",\"cyclesToFirstSwapIn\":" << fr.cyclesToFirstSwapIn
           << "}";
    }
    os << "],";
    os << "\"maxConditions\":" << r.maxConditions << ",";
    os << "\"maxWaiters\":" << r.maxWaiters << ",";
    os << "\"maxMonitoredLines\":" << r.maxMonitoredLines << ",";
    os << "\"maxLogEntries\":" << r.maxLogEntries << ",";
    os << "\"totalWgExecCycles\":" << r.totalWgExecCycles << ",";
    os << "\"totalWgWaitCycles\":" << r.totalWgWaitCycles << ",";
    os << "\"wgLifetimeCycles\":" << r.wgLifetimeCycles << ",";
    os << "\"stallCycles\":{";
    for (std::size_t i = 0; i < sim::numStallReasons; ++i) {
        if (i)
            os << ",";
        os << "\""
           << sim::stallReasonName(static_cast<sim::StallReason>(i))
           << "\":" << r.wgCycleBreakdown[i];
    }
    os << "}";
    os << "}";
}

void
writeResultsJson(
    std::ostream &os,
    const std::vector<std::pair<Experiment, core::RunResult>> &runs)
{
    os << "[\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        os << "  ";
        writeResultJson(os, runs[i].first, runs[i].second);
        if (i + 1 < runs.size())
            os << ",";
        os << "\n";
    }
    os << "]\n";
}

namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
operator==(const Value &a, const Value &b)
{
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case Value::Kind::Null:
        return true;
      case Value::Kind::Bool:
        return a.boolean == b.boolean;
      case Value::Kind::Number:
        return a.number == b.number;
      case Value::Kind::String:
        return a.string == b.string;
      case Value::Kind::Array:
        return a.array == b.array;
      case Value::Kind::Object:
        return a.object == b.object;
    }
    return false;
}

namespace {

/** Recursive-descent parser over a character range. */
class Parser
{
  public:
    Parser(const char *begin, const char *end) : p(begin), end(end) {}

    bool
    parseDocument(Value &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return p == end;
    }

  private:
    void
    skipWs()
    {
        while (p != end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        const char *q = p;
        for (; *text; ++text, ++q) {
            if (q == end || *q != *text)
                return false;
        }
        p = q;
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (p == end)
            return false;
        switch (*p) {
          case '{':
            return parseObject(out);
          case '[':
            return parseArray(out);
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.string);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (p == end || *p != '"')
            return false;
        ++p;
        out.clear();
        while (p != end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p == end)
                return false;
            char esc = *p++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                  // The exporters only emit ASCII; decode the BMP
                  // escape into its low byte to stay lossless there.
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      if (p == end || !std::isxdigit(
                                          static_cast<unsigned char>(
                                              *p)))
                          return false;
                      char h = *p++;
                      code = code * 16 +
                             (h <= '9'   ? h - '0'
                              : h <= 'F' ? h - 'A' + 10
                                         : h - 'a' + 10);
                  }
                  out += static_cast<char>(code & 0xff);
                  break;
              }
              default:
                return false;
            }
        }
        if (p == end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    parseNumber(Value &out)
    {
        const char *start = p;
        if (p != end && (*p == '-' || *p == '+'))
            ++p;
        bool digits = false;
        while (p != end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                *p == '-')) {
            if (std::isdigit(static_cast<unsigned char>(*p)))
                digits = true;
            ++p;
        }
        if (!digits)
            return false;
        out.kind = Value::Kind::Number;
        out.number = std::strtod(std::string(start, p).c_str(),
                                 nullptr);
        return true;
    }

    bool
    parseArray(Value &out)
    {
        ++p; // '['
        out.kind = Value::Kind::Array;
        skipWs();
        if (p != end && *p == ']') {
            ++p;
            return true;
        }
        while (true) {
            Value elem;
            skipWs();
            if (!parseValue(elem))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (p == end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == ']') {
                ++p;
                return true;
            }
            return false;
        }
    }

    bool
    parseObject(Value &out)
    {
        ++p; // '{'
        out.kind = Value::Kind::Object;
        skipWs();
        if (p != end && *p == '}') {
            ++p;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (p == end || *p != ':')
                return false;
            ++p;
            skipWs();
            Value val;
            if (!parseValue(val))
                return false;
            out.object.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (p == end)
                return false;
            if (*p == ',') {
                ++p;
                continue;
            }
            if (*p == '}') {
                ++p;
                return true;
            }
            return false;
        }
    }

    const char *p;
    const char *end;
};

void
writeNumber(std::ostream &os, double v)
{
    char buf[32];
    if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    os << buf;
}

} // anonymous namespace

std::optional<Value>
tryParse(const std::string &text)
{
    Value root;
    Parser parser(text.data(), text.data() + text.size());
    if (!parser.parseDocument(root))
        return std::nullopt;
    return root;
}

void
write(std::ostream &os, const Value &value)
{
    switch (value.kind) {
      case Value::Kind::Null:
        os << "null";
        break;
      case Value::Kind::Bool:
        os << (value.boolean ? "true" : "false");
        break;
      case Value::Kind::Number:
        writeNumber(os, value.number);
        break;
      case Value::Kind::String:
        os << '"' << jsonEscape(value.string) << '"';
        break;
      case Value::Kind::Array: {
        os << '[';
        for (std::size_t i = 0; i < value.array.size(); ++i) {
            if (i)
                os << ',';
            write(os, value.array[i]);
        }
        os << ']';
        break;
      }
      case Value::Kind::Object: {
        os << '{';
        for (std::size_t i = 0; i < value.object.size(); ++i) {
            if (i)
                os << ',';
            os << '"' << jsonEscape(value.object[i].first) << "\":";
            write(os, value.object[i].second);
        }
        os << '}';
        break;
      }
    }
}

} // namespace json

} // namespace ifp::harness
