/**
 * @file
 * The one JSON module: the streaming Writer every exporter uses, and
 * the small reader (Value, tryParse) tests and tools use to check
 * those exports. The Writer alone decides escaping, separators and
 * the number rule (DESIGN.md section 6); its one setting is the
 * Layout.
 */

#ifndef IFP_SIM_JSON_HH
#define IFP_SIM_JSON_HH

#include <charconv>
#include <concepts>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ifp::sim::json {

/** Whitespace between tokens; the content never depends on it. */
enum class Layout
{
    Compact,   //!< no whitespace
    Indented,  //!< one item per line, two-space indent, "key": value
};

/**
 * Streams one JSON document (or one value inside a caller's document)
 * to an ostream. Calls chain: w.beginObject().key("n").value(1).
 * Inside an object every value is preceded by key().
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os, Layout layout = Layout::Compact)
        : os(os), layout(layout)
    {}

    Writer &beginObject() { return open('{', true); }
    Writer &endObject() { return close('}', true); }
    Writer &beginArray() { return open('[', false); }
    Writer &endArray() { return close(']', false); }

    /** The key of the next object member. */
    Writer &key(std::string_view name);

    Writer &
    value(std::string_view s)
    {
        beforeValue();
        writeString(s);
        return *this;
    }
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return number(b ? "true" : "false"); }
    Writer &value(double v);
    Writer &null() { return number("null"); }

    template <std::integral T>
    Writer &
    value(T v)
    {
        char buf[24];
        auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
        return number(
            std::string_view(buf, static_cast<std::size_t>(end - buf)));
    }

    /**
     * Write @p literal verbatim as the next value: a number the caller
     * already formatted (the trace's fixed-point "ts").
     */
    Writer &number(std::string_view literal);

  private:
    struct Frame
    {
        bool object = false;
        bool empty = true;
    };

    /** Separator and indentation before a key or an array element. */
    void separate();
    void beforeValue();
    Writer &open(char bracket, bool object);
    Writer &close(char bracket, bool object);
    void writeString(std::string_view s);

    std::ostream &os;
    Layout layout;
    std::vector<Frame> frames;
    bool afterKey = false;
};

/**
 * A parsed JSON document node. Small by design: enough to round-trip
 * the simulator's own output (tests parse the exported trace and
 * stats files and assert structure), not a general-purpose library.
 */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Members in document order (exports are deterministic). */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;
};

bool operator==(const Value &a, const Value &b);

/**
 * Parse a complete JSON document; nullopt on malformed input,
 * including a raw byte below 0x20 inside a string (RFC 8259).
 */
std::optional<Value> tryParse(const std::string &text);

/** Serialize @p value compactly, in document member order. */
void write(std::ostream &os, const Value &value);

} // namespace ifp::sim::json

#endif // IFP_SIM_JSON_HH
