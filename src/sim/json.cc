#include "sim/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace ifp::sim::json {

void
Writer::separate()
{
    if (frames.empty())
        return;
    if (!frames.back().empty)
        os.put(',');
    frames.back().empty = false;
    if (layout == Layout::Indented)
        os << '\n' << std::string(2 * frames.size(), ' ');
}

void
Writer::beforeValue()
{
    ifp_assert(afterKey || frames.empty() || !frames.back().object,
               "JSON object member written without a key");
    if (!afterKey)
        separate();
    afterKey = false;
}

Writer &
Writer::open(char bracket, bool object)
{
    beforeValue();
    os.put(bracket);
    frames.push_back(Frame{object});
    return *this;
}

Writer &
Writer::close(char bracket, bool object)
{
    ifp_assert(!frames.empty() && frames.back().object == object &&
                   !afterKey,
               "unbalanced JSON %c", bracket);
    bool empty = frames.back().empty;
    frames.pop_back();
    if (!empty && layout == Layout::Indented)
        os << '\n' << std::string(2 * frames.size(), ' ');
    os.put(bracket);
    return *this;
}

void
Writer::writeString(std::string_view s)
{
    os.put('"');
    for (char c : s) {
        if (c == '"' || c == '\\') {
            os.put('\\');
            os.put(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            os.write(buf, 6);
        } else {
            os.put(c);
        }
    }
    os.put('"');
}

Writer &
Writer::key(std::string_view name)
{
    ifp_assert(!frames.empty() && frames.back().object && !afterKey,
               "JSON key outside an object");
    separate();
    writeString(name);
    os << (layout == Layout::Indented ? ": " : ":");
    afterKey = true;
    return *this;
}

Writer &
Writer::value(double v)
{
    // NaN and the infinities fail the range test and print as %.17g
    // does ("nan", "inf"), which is not JSON; no exporter emits them.
    constexpr double twoTo63 = 9223372036854775808.0;
    if (v >= -twoTo63 && v < twoTo63 && v == std::trunc(v))
        return value(static_cast<long long>(v));
    char buf[32];
    int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    return number(std::string_view(buf, static_cast<std::size_t>(n)));
}

Writer &
Writer::number(std::string_view literal)
{
    beforeValue();
    os.write(literal.data(), static_cast<std::streamsize>(literal.size()));
    return *this;
}

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
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
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
                  if (end - p < 4 ||
                      std::from_chars(p, p + 4, code, 16).ptr != p + 4)
                      return false;
                  p += 4;
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
writeValue(Writer &w, const Value &value)
{
    switch (value.kind) {
      case Value::Kind::Null:
        w.null();
        break;
      case Value::Kind::Bool:
        w.value(value.boolean);
        break;
      case Value::Kind::Number:
        w.value(value.number);
        break;
      case Value::Kind::String:
        w.value(value.string);
        break;
      case Value::Kind::Array:
        w.beginArray();
        for (const Value &elem : value.array)
            writeValue(w, elem);
        w.endArray();
        break;
      case Value::Kind::Object:
        w.beginObject();
        for (const auto &[k, v] : value.object) {
            w.key(k);
            writeValue(w, v);
        }
        w.endObject();
        break;
    }
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
    Writer w(os);
    writeValue(w, value);
}

} // namespace ifp::sim::json
