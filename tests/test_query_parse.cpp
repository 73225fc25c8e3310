// Query::parse — the inverse of describe() (ISSUE 9).
//
// The contract under test:
//   - parse(q.describe()).describe() == q.describe() for EVERY
//     restriction combination (the same 32-combination sweep
//     test_query_describe enumerates, plus quoted-atom cases);
//   - lenient input (extra spaces, unsorted sets, duplicate clauses)
//     parses and canonicalizes — parse-then-describe is idempotent;
//   - malformed input throws QueryParseError carrying the byte offset
//     of the offending character;
//   - parsed queries FILTER identically to built ones (the grammar
//     carries the whole restriction, not a rendering of it);
//   - hostile input (seeded bit flips, insertions, deletions and
//     truncations of every canonical query) either parses to a query
//     whose describe() round-trips or throws QueryParseError with an
//     offset inside the input — never anything else.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/query.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

Query build(unsigned mask) {
  Query q;
  if (mask & 1u) q = q.fp_contains("/p/scratch");
  if (mask & 2u) q = q.calls({"read", "write"});
  if (mask & 4u) q = q.between(10, 200);
  if (mask & 8u) q = q.cids({"a", "b"});
  if (mask & 16u) q = q.hosts({"node1"});
  return q;
}

TEST(QueryParse, RoundTripsEveryRestrictionCombination) {
  for (unsigned mask = 0; mask < 32; ++mask) {
    const Query q = build(mask);
    const std::string canonical = q.describe();
    const Query reparsed = Query::parse(canonical);
    EXPECT_EQ(reparsed.describe(), canonical) << "mask " << mask;
    EXPECT_TRUE(reparsed == q) << "mask " << mask;
  }
}

TEST(QueryParse, RoundTripsQuotedAtoms) {
  const std::vector<Query> queries = {
      Query().fp_contains("with space"),
      Query().fp_contains("a\"b").fp_contains("back\\slash"),
      Query().fp_contains(std::string("nul\0byte", 8)),
      Query().fp_contains(""),
      Query().cids({"a,b", "plain"}),
      Query().hosts({"brace{y}"}),
      Query().calls({"we ird", "read"}),
  };
  for (const auto& q : queries) {
    const std::string canonical = q.describe();
    EXPECT_EQ(Query::parse(canonical).describe(), canonical) << canonical;
    EXPECT_TRUE(Query::parse(canonical) == q) << canonical;
  }
}

TEST(QueryParse, CanonicalizesLenientSpellings) {
  // unsorted sets, extra spaces, spaces inside braces
  EXPECT_EQ(Query::parse("  calls{write , read}   fp~/p ").describe(),
            "fp~/p calls{read,write}");
  EXPECT_EQ(Query::parse("hosts{n2,n1,n2}").describe(), "hosts{n1,n2}");
  EXPECT_EQ(Query::parse("   all   ").describe(), "all");
  EXPECT_EQ(Query::parse("t[ 10 , 200 )").describe(), "t[10,200)");
}

TEST(QueryParse, DuplicateClausesAreConjunctiveForFpLastWinsForSets) {
  // fp~ restrictions are conjunctive, so repeats accumulate...
  EXPECT_EQ(Query::parse("fp~b fp~a").describe(), "fp~a fp~b");
  // ...while the set-valued clauses REPLACE (a later clause is a
  // sharper statement of the same restriction).
  EXPECT_EQ(Query::parse("cids{a} cids{b}").describe(), "cids{b}");
  EXPECT_EQ(Query::parse("t[0,5) t[10,20)").describe(), "t[10,20)");
}

TEST(QueryParse, ParsedQueriesFilterLikeBuiltOnes) {
  EventLog log;
  log.add_case(Case(
      CaseId{"a", "node1", 1},
      {Event{.cid = "a", .host = "node1", .call = "read", .start = 50, .dur = 1, .fp = "/p/data/f"},
       Event{.cid = "a", .host = "node1", .call = "write", .start = 150, .dur = 1,
             .fp = "/p/scratch/t"}}));
  log.add_case(Case(CaseId{"b", "node2", 2}, {Event{.cid = "b", .host = "node2", .call = "read",
                                                    .start = 60, .dur = 1, .fp = "/p/scratch/u"}}));

  const auto parsed = Query::parse("fp~/p/scratch t[10,200) hosts{node1}");
  const auto built = Query().fp_contains("/p/scratch").between(10, 200).hosts({"node1"});
  ASSERT_TRUE(parsed == built);
  const auto via_parsed = parsed.apply(log);
  const auto via_built = built.apply(log);
  ASSERT_EQ(via_parsed.case_count(), via_built.case_count());
  EXPECT_EQ(via_parsed.total_events(), via_built.total_events());
  ASSERT_EQ(via_parsed.case_count(), 1u);
  EXPECT_EQ(via_parsed.cases()[0].events().size(), 1u);
  EXPECT_EQ(via_parsed.cases()[0].events()[0].fp, "/p/scratch/t");
}

struct BadInput {
  std::string text;
  std::size_t position;  ///< expected QueryParseError::position()
};

TEST(QueryParse, RejectsMalformedInputWithPosition) {
  const std::vector<BadInput> bad = {
      {"", 0},                    // empty request is not a query ("all" is)
      {"   ", 3},                 // only spaces
      {"bogus", 0},               // unknown clause
      {"all extra", 0},           // trailing garbage after "all"
      {"fp~", 3},                 // empty bare value
      {"fp~{x}", 3},              // brace needs quoting
      {"calls{read", 10},         // unterminated set
      {"calls{read,", 11},        // dangling comma
      {"cids{a b}", 7},           // missing comma
      {"t[10,200]", 8},           // closed interval spelling
      {"t[10 200)", 5},           // missing comma
      {"t[x,200)", 2},            // non-integer bound
      {"fp~\"unterminated", 16},  // unterminated quote
      {"fp~\"bad\\q\"", 8},       // unknown escape
      {"fp~\"bad\\xg0\"", 9},     // bad hex escape (points at the g)
      {"fp~\"trunc\\x1", 11},     // truncated hex escape (just past the x)
      {"fp~a calls{read} junk", 17},
      {"fp~a  t[1,2) hosts", 13},  // hosts without braces
  };
  for (const auto& b : bad) {
    try {
      (void)Query::parse(b.text);
      FAIL() << "not rejected: [" << b.text << "]";
    } catch (const QueryParseError& e) {
      EXPECT_EQ(e.position(), b.position) << "[" << b.text << "]: " << e.what();
      // The offset is also embedded in the message (CLI users see
      // what() only).
      EXPECT_NE(std::string(e.what()).find("at offset"), std::string::npos);
    }
  }
}

TEST(QueryParse, MutationSweepRoundTripsOrThrowsTyped) {
  std::vector<std::string> canonical;
  for (unsigned mask = 0; mask < 32; ++mask) canonical.push_back(build(mask).describe());
  for (const auto& q : {Query().fp_contains("with space"),
                        Query().fp_contains("a\"b").fp_contains("back\\slash"),
                        Query().fp_contains(std::string("nul\0byte", 8)),
                        Query().cids({"a,b", "plain"}), Query().hosts({"brace{y}"})}) {
    canonical.push_back(q.describe());
  }
  Xoshiro256 rng(20261018);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const auto& text : canonical) {
    for (int i = 0; i < 300; ++i) {
      const std::string mutated = testing::mutate_bytes(text, rng);
      try {
        const Query q = Query::parse(mutated);
        const std::string described = q.describe();
        const Query again = Query::parse(described);
        EXPECT_EQ(again.describe(), described) << "[" << mutated << "]";
        EXPECT_TRUE(again == q) << "[" << mutated << "]";
        ++parsed;
      } catch (const QueryParseError& e) {
        EXPECT_LE(e.position(), mutated.size()) << "[" << mutated << "]: " << e.what();
        ++rejected;
      }
      // Anything else escaping parse() fails the test as an exception.
    }
  }
  // Both outcomes are exercised, so the sweep is not vacuous.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(QueryParse, QueryParseErrorIsAParseError) {
  // Generic CLI/server error handling catches st::ParseError; the
  // typed subclass must flow through it.
  EXPECT_THROW((void)Query::parse("bogus"), ParseError);
}

}  // namespace
}  // namespace st::model
