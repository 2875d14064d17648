/**
 * @file
 * Minimal JSON support for the repo's own machine artifacts (timeline
 * logs, analyze reports, checkpoint JSONL, the registry snapshot).
 *
 * Read side: a recursive-descent parser. Scope is deliberately small:
 * parse a complete value from a string into a Value tree (null / bool /
 * number / string / array / object). Numbers are held as double plus
 * the exact signed/unsigned integer when the literal was integral —
 * hit counts are uint64 and must not round through a double. No
 * streaming, no comments, no trailing commas; object member order is
 * preserved (vector of pairs) so tests can assert on emission order.
 *
 * Write side: writers build their JSON by hand from two shared
 * scalar helpers, quote() and number(), so every artifact escapes
 * strings and formats doubles the same way.
 */
#ifndef SP_UTIL_JSON_H
#define SP_UTIL_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sp::json {

class Value;

/** Object member list, emission order preserved. */
using Members = std::vector<std::pair<std::string, Value>>;

/** One parsed JSON value. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @name Accessors (defaulted when the kind does not match) */
    /** @{ */
    bool boolean(bool fallback = false) const;
    double number(double fallback = 0.0) const;
    /** Exact integer when the literal was integral and in range,
     *  otherwise a truncation of the double (or `fallback` for
     *  non-numbers and doubles outside the target range). */
    int64_t asInt(int64_t fallback = 0) const;
    uint64_t asUint(uint64_t fallback = 0) const;
    /** True when the literal was a non-negative integer that fits
     *  uint64, i.e. asUint() returns it exactly. */
    bool isUint() const { return kind_ == Kind::Number && uint_exact_; }
    const std::string &str() const;           ///< "" for non-strings
    const std::vector<Value> &array() const;  ///< empty for non-arrays
    const Members &members() const;           ///< empty for non-objects
    /** @} */

    /** Object member lookup (first match), or nullptr. */
    const Value *find(std::string_view key) const;

    /** Array element, or nullptr when out of range / non-array. */
    const Value *at(size_t index) const;

    /** @name Construction (parser + tests) */
    /** @{ */
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double d);
    static Value makeInt(int64_t i);
    static Value makeUint(uint64_t u);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> elems);
    static Value makeObject(Members members);
    /** @} */

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    /** Exact integer payload; valid when int_exact_/uint_exact_. */
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    bool int_exact_ = false;
    bool uint_exact_ = false;
    std::string str_;
    std::vector<Value> array_;
    std::shared_ptr<Members> members_;  ///< shared: Value stays copyable
};

/** Parse outcome: value + error ("" on success). */
struct ParseResult
{
    Value value;
    std::string error;  ///< empty = success
    size_t offset = 0;  ///< error position in the input

    bool ok() const { return error.empty(); }
};

/**
 * Parse exactly one JSON value spanning the whole input (trailing
 * whitespace allowed). UTF-8 passes through; \uXXXX escapes decode to
 * UTF-8 (surrogate pairs included).
 */
ParseResult parse(std::string_view text);

/** JSON string literal: quoted, with `"`, backslash and control bytes
 *  escaped; other bytes (UTF-8 included) pass through. */
std::string quote(std::string_view s);

/** JSON number literal (`%.9g`); non-finite values, which JSON cannot
 *  express (empty-stat min/max, say), are written as 0. */
std::string number(double v);

}  // namespace sp::json

#endif  // SP_UTIL_JSON_H
