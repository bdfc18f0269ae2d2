/**
 * @file
 * A minimal JSON value type with a recursive-descent parser and a
 * pretty printer, sized for the golden-file schema (objects, arrays,
 * strings, numbers, booleans, null). No external dependency: the
 * container image is fixed, so the validation subsystem carries its
 * own reader for the few kilobytes of golden data it owns.
 *
 * Object member order is preserved on parse and emit so regenerated
 * golden files diff cleanly against the checked-in ones.
 */

#ifndef CEDARSIM_VALID_JSON_HH
#define CEDARSIM_VALID_JSON_HH

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cedar::valid {

/** One JSON value; objects keep members in insertion order. */
class Json
{
  public:
    enum class Type
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Json() = default;
    static Json of(bool b);
    static Json of(double v);
    static Json of(const std::string &s);
    static Json of(const char *s) { return of(std::string(s)); }
    static Json array();
    static Json object();

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::null; }
    bool isNumber() const { return _type == Type::number; }
    bool isString() const { return _type == Type::string; }
    bool isArray() const { return _type == Type::array; }
    bool isObject() const { return _type == Type::object; }

    /** Value accessors; throw std::runtime_error on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    void push(Json v);

    /** Object access. `get` returns nullptr when the key is absent. */
    const Json *get(const std::string &key) const;
    void set(const std::string &key, Json v);
    const std::vector<std::pair<std::string, Json>> &members() const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text as one JSON document.
     * @throws std::runtime_error with line/column on malformed input
     */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type _type = Type::null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<Json> _array;
    std::vector<std::pair<std::string, Json>> _object;
};

} // namespace cedar::valid

#endif // CEDARSIM_VALID_JSON_HH
