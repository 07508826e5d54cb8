/**
 * @file
 * JSON output, dependency-free: the tiny ordered JsonObject / jsonArray
 * builders that every machine-readable artifact (BENCH_*.json,
 * specslice_run --json, specslice_verify --json) is rendered with. They
 * live here so src/sim code (the result documents) can emit the same
 * byte-exact documents as the bench binaries. bench_common.hh
 * re-exports them unchanged.
 */

#ifndef SPECSLICE_COMMON_JSONIO_HH
#define SPECSLICE_COMMON_JSONIO_HH

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace specslice::json
{

/** Escape a string for embedding in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * A tiny ordered JSON object builder — enough for flat result records
 * and arrays of them; no external dependency.
 */
class JsonObject
{
  public:
    JsonObject &
    field(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    field(const std::string &key, double v)
    {
        char buf[64];
        if (v != v) {  // NaN: JSON has no literal for it
            return raw(key, "null");
        }
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return raw(key, buf);
    }

    JsonObject &
    field(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + jsonEscape(v) + "\"");
    }

    /** Insert a pre-rendered JSON value (object, array, number). */
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            os << (i ? ", " : "")
               << '"' << jsonEscape(fields_[i].first) << "\": "
               << fields_[i].second;
        }
        os << "}";
        return os.str();
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Render a JSON array from pre-rendered element strings. */
inline std::string
jsonArray(const std::vector<std::string> &elems)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < elems.size(); ++i)
        os << (i ? ", " : "") << elems[i];
    os << "]";
    return os.str();
}

} // namespace specslice::json

#endif // SPECSLICE_COMMON_JSONIO_HH
