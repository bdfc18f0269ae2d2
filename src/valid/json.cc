/**
 * @file
 * JSON parsing and serialization for the golden files.
 */

#include "valid/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "sim/statreg.hh"

namespace cedar::valid {

namespace {

[[noreturn]] void
typeError(const char *want, Json::Type got)
{
    static const char *names[] = {"null", "boolean", "number",
                                  "string", "array", "object"};
    throw std::runtime_error(std::string("json: expected ") + want +
                             ", found " +
                             names[static_cast<int>(got)]);
}

/** Cursor over the input with position tracking for error messages. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        unsigned line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw std::runtime_error("json: " + msg + " at line " +
                                 std::to_string(line) + ", column " +
                                 std::to_string(col));
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && peek() == c) {
            ++pos;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos >= text.size() || text[pos] != *p)
                fail(std::string("bad literal (expected ") + word + ")");
            ++pos;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += 10 + h - 'a';
                    else if (h >= 'A' && h <= 'F')
                        code += 10 + h - 'A';
                    else
                        fail("bad \\u escape digit");
                }
                // Golden files are ASCII; encode BMP code points UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    Json
    parseNumber()
    {
        std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos]))) {
                ++pos;
                digits = true;
            }
        };
        eatDigits();
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            eatDigits();
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '-' || text[pos] == '+'))
                ++pos;
            eatDigits();
        }
        if (!digits)
            fail("malformed number");
        return Json::of(std::strtod(text.c_str() + start, nullptr));
    }

    Json
    parseValue(int depth)
    {
        if (depth > 64)
            fail("nesting too deep");
        char c = peek();
        switch (c) {
          case '{': {
            ++pos;
            Json obj = Json::object();
            skipSpace();
            if (consume('}'))
                return obj;
            while (true) {
                std::string key = parseString();
                expect(':');
                obj.set(key, parseValue(depth + 1));
                if (consume(','))
                    continue;
                expect('}');
                return obj;
            }
          }
          case '[': {
            ++pos;
            Json arr = Json::array();
            skipSpace();
            if (consume(']'))
                return arr;
            while (true) {
                arr.push(parseValue(depth + 1));
                if (consume(','))
                    continue;
                expect(']');
                return arr;
            }
          }
          case '"': return Json::of(parseString());
          case 't': literal("true"); return Json::of(true);
          case 'f': literal("false"); return Json::of(false);
          case 'n': literal("null"); return Json();
          default: return parseNumber();
        }
    }
};

} // namespace

Json
Json::of(bool b)
{
    Json j;
    j._type = Type::boolean;
    j._bool = b;
    return j;
}

Json
Json::of(double v)
{
    Json j;
    j._type = Type::number;
    j._number = v;
    return j;
}

Json
Json::of(const std::string &s)
{
    Json j;
    j._type = Type::string;
    j._string = s;
    return j;
}

Json
Json::array()
{
    Json j;
    j._type = Type::array;
    return j;
}

Json
Json::object()
{
    Json j;
    j._type = Type::object;
    return j;
}

bool
Json::asBool() const
{
    if (_type != Type::boolean)
        typeError("boolean", _type);
    return _bool;
}

double
Json::asNumber() const
{
    if (_type != Type::number)
        typeError("number", _type);
    return _number;
}

const std::string &
Json::asString() const
{
    if (_type != Type::string)
        typeError("string", _type);
    return _string;
}

std::size_t
Json::size() const
{
    if (_type == Type::array)
        return _array.size();
    if (_type == Type::object)
        return _object.size();
    typeError("array or object", _type);
}

const Json &
Json::at(std::size_t i) const
{
    if (_type != Type::array)
        typeError("array", _type);
    if (i >= _array.size())
        throw std::runtime_error("json: array index out of range");
    return _array[i];
}

void
Json::push(Json v)
{
    if (_type != Type::array)
        typeError("array", _type);
    _array.push_back(std::move(v));
}

const Json *
Json::get(const std::string &key) const
{
    if (_type != Type::object)
        typeError("object", _type);
    for (const auto &[k, v] : _object)
        if (k == key)
            return &v;
    return nullptr;
}

void
Json::set(const std::string &key, Json v)
{
    if (_type != Type::object)
        typeError("object", _type);
    for (auto &[k, existing] : _object) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    _object.emplace_back(key, std::move(v));
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (_type != Type::object)
        typeError("object", _type);
    return _object;
}

namespace {

std::string
numberText(double v)
{
    if (!std::isfinite(v))
        return "null";
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    // Shortest round-trip representation up to 17 significant digits.
    for (int prec = 9; prec <= 17; ++prec) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };
    switch (_type) {
      case Type::null: out += "null"; break;
      case Type::boolean: out += _bool ? "true" : "false"; break;
      case Type::number: out += numberText(_number); break;
      case Type::string:
        out += '"' + jsonEscape(_string) + '"';
        break;
      case Type::array: {
        if (_array.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < _array.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            _array[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Type::object: {
        if (_object.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[k, v] : _object) {
            if (!first)
                out += ',';
            first = false;
            newline(depth + 1);
            out += '"' + jsonEscape(k) + "\":";
            if (indent > 0)
                out += ' ';
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

Json
Json::parse(const std::string &text)
{
    Parser p{text};
    Json v = p.parseValue(0);
    p.skipSpace();
    if (p.pos != text.size())
        p.fail("trailing content after document");
    return v;
}

} // namespace cedar::valid
