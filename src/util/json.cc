#include "util/json.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace sp::json {

namespace {

const std::string kEmptyString;
const std::vector<Value> kEmptyArray;
const Members kEmptyMembers;

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    ParseResult run()
    {
        ParseResult result;
        skipWs();
        result.value = parseValue();
        if (ok()) {
            skipWs();
            if (pos_ != text_.size())
                fail("trailing characters after value");
        }
        result.error = error_;
        result.offset = error_pos_;
        return result;
    }

  private:
    bool ok() const { return error_.empty(); }

    void fail(const char *message)
    {
        if (ok()) {
            error_ = message;
            error_pos_ = pos_;
        }
    }

    char peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool expectLiteral(std::string_view literal)
    {
        if (text_.compare(pos_, literal.size(), literal) != 0) {
            fail("invalid literal");
            return false;
        }
        pos_ += literal.size();
        return true;
    }

    Value parseValue()
    {
        if (depth_ > kMaxDepth) {
            fail("nesting too deep");
            return Value();
        }
        switch (peek()) {
        case 'n':
            expectLiteral("null");
            return Value::makeNull();
        case 't':
            expectLiteral("true");
            return Value::makeBool(true);
        case 'f':
            expectLiteral("false");
            return Value::makeBool(false);
        case '"':
            return Value::makeString(parseString());
        case '[':
            return parseArray();
        case '{':
            return parseObject();
        default:
            return parseNumber();
        }
    }

    Value parseArray()
    {
        ++pos_;  // '['
        ++depth_;
        std::vector<Value> elems;
        skipWs();
        if (consume(']')) {
            --depth_;
            return Value::makeArray(std::move(elems));
        }
        while (ok()) {
            skipWs();
            elems.push_back(parseValue());
            skipWs();
            if (consume(']'))
                break;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                break;
            }
        }
        --depth_;
        return Value::makeArray(std::move(elems));
    }

    Value parseObject()
    {
        ++pos_;  // '{'
        ++depth_;
        Members members;
        skipWs();
        if (consume('}')) {
            --depth_;
            return Value::makeObject(std::move(members));
        }
        while (ok()) {
            skipWs();
            if (peek() != '"') {
                fail("expected string key in object");
                break;
            }
            std::string key = parseString();
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                break;
            }
            skipWs();
            members.emplace_back(std::move(key), parseValue());
            skipWs();
            if (consume('}'))
                break;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                break;
            }
        }
        --depth_;
        return Value::makeObject(std::move(members));
    }

    std::string parseString()
    {
        ++pos_;  // '"'
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                uint32_t cp = 0;
                if (!parseHex4(cp)) {
                    fail("invalid \\u escape");
                    return out;
                }
                // Surrogate pair: a high surrogate must be followed by
                // an escaped low surrogate.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    uint32_t low = 0;
                    if (text_.compare(pos_, 2, "\\u") != 0) {
                        fail("unpaired surrogate");
                        return out;
                    }
                    pos_ += 2;
                    if (!parseHex4(low) || low < 0xDC00 ||
                        low > 0xDFFF) {
                        fail("invalid low surrogate");
                        return out;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (low - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                fail("invalid escape character");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    bool parseHex4(uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    static void appendUtf8(std::string &out, uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    Value parseNumber()
    {
        const size_t start = pos_;
        if (start >= text_.size()) {
            fail("unexpected end of input");
            return Value();
        }
        const bool negative = consume('-');
        while (peek() >= '0' && peek() <= '9')
            ++pos_;
        const bool integral_so_far = pos_ > start + (negative ? 1 : 0);
        bool integral = integral_so_far;
        if (consume('.')) {
            integral = false;
            while (peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            integral = false;
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!integral_so_far) {
            fail("invalid number");
            return Value();
        }
        const std::string token(text_.substr(start, pos_ - start));
        if (integral) {
            errno = 0;
            if (token[0] == '-') {
                const int64_t v =
                    std::strtoll(token.c_str(), nullptr, 10);
                if (errno != ERANGE)
                    return Value::makeInt(v);
            } else {
                const uint64_t v =
                    std::strtoull(token.c_str(), nullptr, 10);
                if (errno != ERANGE)
                    return Value::makeUint(v);
            }
        }
        return Value::makeNumber(std::strtod(token.c_str(), nullptr));
    }

    static constexpr int kMaxDepth = 128;

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
    size_t error_pos_ = 0;
};

}  // namespace

bool
Value::boolean(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

double
Value::number(double fallback) const
{
    return kind_ == Kind::Number ? num_ : fallback;
}

int64_t
Value::asInt(int64_t fallback) const
{
    if (kind_ != Kind::Number)
        return fallback;
    if (int_exact_)
        return int_;
    if (uint_exact_ &&
        uint_ <= static_cast<uint64_t>(
                     std::numeric_limits<int64_t>::max())) {
        return static_cast<int64_t>(uint_);
    }
    // Out-of-range (or infinite) doubles have no integer value; the
    // cast would be undefined.
    if (!(num_ >= -0x1p63 && num_ < 0x1p63))
        return fallback;
    return static_cast<int64_t>(num_);
}

uint64_t
Value::asUint(uint64_t fallback) const
{
    if (kind_ != Kind::Number)
        return fallback;
    if (uint_exact_)
        return uint_;
    if (int_exact_ && int_ >= 0)
        return static_cast<uint64_t>(int_);
    if (!(num_ >= 0.0 && num_ < 0x1p64))
        return fallback;
    return static_cast<uint64_t>(num_);
}

const std::string &
Value::str() const
{
    return kind_ == Kind::String ? str_ : kEmptyString;
}

const std::vector<Value> &
Value::array() const
{
    return kind_ == Kind::Array ? array_ : kEmptyArray;
}

const Members &
Value::members() const
{
    return kind_ == Kind::Object && members_ ? *members_
                                             : kEmptyMembers;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[name, value] : members()) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const Value *
Value::at(size_t index) const
{
    const auto &elems = array();
    return index < elems.size() ? &elems[index] : nullptr;
}

Value
Value::makeNull()
{
    return Value();
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double d)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

Value
Value::makeInt(int64_t i)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(i);
    v.int_ = i;
    v.int_exact_ = true;
    if (i >= 0) {
        v.uint_ = static_cast<uint64_t>(i);
        v.uint_exact_ = true;
    }
    return v;
}

Value
Value::makeUint(uint64_t u)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = static_cast<double>(u);
    v.uint_ = u;
    v.uint_exact_ = true;
    if (u <= static_cast<uint64_t>(
                 std::numeric_limits<int64_t>::max())) {
        v.int_ = static_cast<int64_t>(u);
        v.int_exact_ = true;
    }
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> elems)
{
    Value v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(elems);
    return v;
}

Value
Value::makeObject(Members members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::make_shared<Members>(std::move(members));
    return v;
}

ParseResult
parse(std::string_view text)
{
    return Parser(text).run();
}

}  // namespace sp::json
