// Parser/writer round-trip properties, in BOTH parse modes.
//
// For any well-formed input: parse → write → reparse must be canonically
// equal to the first parse, and the arena parser (xml::parse_arena) must
// agree node-for-node with the owned parser (xml::parse) — same canonical
// form, same serialization. Exercises the corners the ingest path depends
// on: predefined entities, numeric character references, CDATA sections,
// comments/PIs merging surrounding text, and both whitespace modes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/prng.hpp"
#include "workload/generator.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace hxrc {
namespace {

struct NamedInput {
  const char* label;
  const char* text;
};

const std::vector<NamedInput>& tricky_inputs() {
  static const std::vector<NamedInput> inputs = {
      {"entities", "<r><a>fish &amp; chips &lt;tag&gt; &quot;q&quot; &apos;a&apos;</a></r>"},
      {"charrefs", "<r><a>&#65;&#x42;&#x2603;</a><b attr=\"&#169;\"/></r>"},
      {"cdata", "<r><c><![CDATA[literal <unescaped> & raw]]></c></r>"},
      {"cdata_blank", "<r><c><![CDATA[   ]]></c></r>"},
      {"comment_split_text",
       "<r><t>before<!-- note -->after</t><u>one<?pi data?>two</u></t0></r>"},
      {"attributes", "<r a=\"1\" b='two &amp; three' c=\"&#x26;\"><leaf/></r>"},
      {"mixed_whitespace", "<r>\n  <a>  padded  </a>\n  <b>x</b>\n</r>"},
      {"nested", "<r><l1><l2><l3 deep=\"yes\">v</l3></l2></l1></r>"},
      {"empty_variants", "<r><a/><b></b><c> </c></r>"},
      {"declaration", "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r><a>x</a></r>"},
  };
  return inputs;
}

// comment_split_text above is intentionally malformed (</t0>); the property
// must hold for the well-formed subset, so filter by parseability.
bool parses(const std::string& text) {
  try {
    (void)xml::parse(text);
    return true;
  } catch (const xml::ParseError&) {
    return false;
  }
}

void expect_roundtrip(const std::string& input, const xml::ParseOptions& options) {
  const xml::Document owned = xml::parse(input, options);
  const xml::Document arena = xml::parse_arena(input, options);

  // Arena and owned parses agree exactly.
  EXPECT_EQ(xml::canonical(owned), xml::canonical(arena)) << input;
  EXPECT_EQ(xml::write(owned), xml::write(arena)) << input;

  // write → reparse is canonical-identity, in both modes.
  const xml::Document owned_again = xml::parse(xml::write(owned), options);
  EXPECT_EQ(xml::canonical(owned), xml::canonical(owned_again)) << input;
  const xml::Document arena_again = xml::parse_arena(xml::write(arena), options);
  EXPECT_EQ(xml::canonical(arena), xml::canonical(arena_again)) << input;
}

TEST(XmlRoundTrip, TrickyInputsBothModesBothWhitespaceOptions) {
  for (const NamedInput& input : tricky_inputs()) {
    SCOPED_TRACE(input.label);
    const std::string text = input.text;
    if (!parses(text)) continue;
    expect_roundtrip(text, {});
    xml::ParseOptions keep;
    keep.keep_whitespace_text = true;
    expect_roundtrip(text, keep);
  }
}

TEST(XmlRoundTrip, CommentAndPiMergeSurroundingTextIdenticallyInBothModes) {
  const std::string text = "<r><t>before<!-- note -->after</t><u>one<?pi d?>two</u></r>";
  const xml::Document owned = xml::parse(text);
  const xml::Document arena = xml::parse_arena(text);
  // Comments/PIs are discarded and the flanking text becomes ONE node.
  for (const xml::Document* doc : {&owned, &arena}) {
    const xml::Node* t = doc->root->first_child("t");
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->children().size(), 1u);
    EXPECT_EQ(t->children().front()->value(), "beforeafter");
    const xml::Node* u = doc->root->first_child("u");
    ASSERT_NE(u, nullptr);
    ASSERT_EQ(u->children().size(), 1u);
    EXPECT_EQ(u->children().front()->value(), "onetwo");
  }
}

TEST(XmlRoundTrip, CdataIsItsOwnNodeAndSurvivesBlankCheck) {
  const std::string text = "<r><c>pre<![CDATA[ <raw> & ]]>post</c><d><![CDATA[  ]]></d></r>";
  const xml::Document owned = xml::parse(text);
  const xml::Document arena = xml::parse_arena(text);
  for (const xml::Document* doc_ptr : {&owned, &arena}) {
    const xml::Document& doc = *doc_ptr;
    const xml::Node* c = doc.root->first_child("c");
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->children().size(), 3u);
    EXPECT_EQ(c->children()[1]->value(), " <raw> & ");
    // Whitespace-only CDATA is kept even with keep_whitespace_text = false.
    const xml::Node* d = doc.root->first_child("d");
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->children().size(), 1u);
    EXPECT_EQ(d->children().front()->value(), "  ");
  }
}

TEST(XmlRoundTrip, GeneratedCorpusAgreesAcrossModes) {
  workload::DocumentGenerator generator;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const std::string text = xml::write(generator.generate(seed));
    SCOPED_TRACE(seed);
    expect_roundtrip(text, {});
  }
}

TEST(XmlRoundTrip, ArenaDocumentOutlivesInputBuffer) {
  std::string input = "<r><a k=\"v &amp; w\">body &gt; text</a></r>";
  xml::Document doc = xml::parse_arena(input);
  const std::string before = xml::canonical(doc);
  // Clobber and free the caller's buffer; the arena holds its own copy.
  input.assign(input.size(), 'x');
  input.clear();
  input.shrink_to_fit();
  EXPECT_EQ(xml::canonical(doc), before);
  EXPECT_GT(doc.arena_bytes(), 0u);

  // Cloning detaches from the arena entirely.
  const xml::Document detached = doc.clone();
  EXPECT_EQ(detached.storage, nullptr);
  EXPECT_EQ(xml::canonical(detached), before);
}

TEST(XmlRoundTrip, MutatedSurvivorsAgreeAcrossModes) {
  // Mutation fuzz focused on mode agreement: any input BOTH parsers accept
  // must produce identical canonical forms; acceptance itself must agree.
  util::Prng rng(7);
  workload::DocumentGenerator generator;
  const std::string original = xml::write(generator.generate(7));
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = original;
    const int edits = static_cast<int>(rng.uniform(1, 6));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform(32, 126));
    }
    bool owned_ok = false;
    bool arena_ok = false;
    std::string owned_canon;
    std::string arena_canon;
    try {
      owned_canon = xml::canonical(xml::parse(mutated));
      owned_ok = true;
    } catch (const xml::ParseError&) {
    }
    try {
      arena_canon = xml::canonical(xml::parse_arena(mutated));
      arena_ok = true;
    } catch (const xml::ParseError&) {
    }
    EXPECT_EQ(owned_ok, arena_ok) << mutated;
    if (owned_ok && arena_ok) {
      EXPECT_EQ(owned_canon, arena_canon) << mutated;
    }
  }
}

}  // namespace
}  // namespace hxrc
