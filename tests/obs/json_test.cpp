#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

/// The JSON writer's own rules: null for non-finite doubles, the escape of
/// every control byte, and comma placement at any nesting depth.  Number
/// round-trips and quote/backslash escapes are pinned through the store
/// (tests/exp/store_test.cpp).

namespace spms::obs::json {
namespace {

TEST(JsonWriter, NonFiniteDoublesAreNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::string out;
  Writer w{out};
  w.begin_object()
      .d("nan", std::numeric_limits<double>::quiet_NaN())
      .d("inf", kInf)
      .d("neg_inf", -kInf)
      .d("max", std::numeric_limits<double>::max())
      .key("list")
      .begin_array()
      .d(kInf)
      .d(-0.5)
      .end_array()
      .end_object();
  EXPECT_EQ(out,
            R"({"nan":null,"inf":null,"neg_inf":null,"max":1.7976931348623157e+308,)"
            R"("list":[null,-0.5]})");
}

TEST(JsonWriter, EscapesEveryByteBelow0x20) {
  for (int c = 0; c < 0x20; ++c) {
    std::string expected;
    switch (c) {
      case '\n': expected = R"("\n")"; break;
      case '\r': expected = R"("\r")"; break;
      case '\t': expected = R"("\t")"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        expected = "\"\\u00";
        expected += kHex[c >> 4];
        expected += kHex[c & 0xf];
        expected += '"';
      }
    }
    std::string out;
    append_string(out, std::string(1, static_cast<char>(c)));
    EXPECT_EQ(out, expected) << "byte " << c;
  }
  // The first printable byte, DEL and UTF-8 pass through.
  std::string out;
  append_string(out, " \x7f\xc3\xa9");
  EXPECT_EQ(out, "\" \x7f\xc3\xa9\"");
}

TEST(JsonWriter, CommasSeparateSiblingsAtEveryDepth) {
  std::string out;
  Writer w{out};
  w.begin_object().key("a").begin_array().u64(1).begin_array().end_array().begin_object();
  w.key("b").begin_object().end_object().end_object();
  w.begin_array().i64(-2).b(false).end_array().end_array();
  w.key("c").begin_object().key("d").begin_array();
  w.begin_object().str("e", "x").end_object();
  w.begin_object().item("f", net::DataId{net::NodeId{3}, 7}).raw("g", "{}").end_object();
  w.end_array().end_object();
  w.b("h", true).end_object();
  EXPECT_EQ(out,
            R"({"a":[1,[],{"b":{}},[-2,false]],)"
            R"("c":{"d":[{"e":"x"},{"f":"n3#7","g":{}}]},"h":true})");
}

}  // namespace
}  // namespace spms::obs::json
