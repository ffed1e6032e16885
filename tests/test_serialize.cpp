// Persistence: database serialization round-trips and whole-catalog
// save/restore (queries, responses, definitions, and sequences survive).
#include <gtest/gtest.h>

#include <sstream>

#include "core/catalog.hpp"
#include "rel/serialize.hpp"
#include "workload/generator.hpp"
#include "workload/lead_schema.hpp"
#include "workload/query_gen.hpp"
#include "xml/canonical.hpp"
#include "xml/parser.hpp"

namespace hxrc {
namespace {

rel::TableSchema mixed_schema() {
  return rel::TableSchema{{"i", rel::Type::kInt},
                          {"d", rel::Type::kDouble},
                          {"s", rel::Type::kString}};
}

TEST(DatabaseSerialize, RoundTripsTablesClobsAndInternedValues) {
  rel::Database db;
  rel::Table& t = db.create_table("t", mixed_schema());
  t.create_hash_index("by_i", {"i"});
  static const std::string kInterned = "shared-model-name";
  t.append(rel::Row{rel::Value(std::int64_t{-7}), rel::Value(0.1),
                    rel::Value::interned(&kInterned)});
  t.append(rel::Row{rel::Value::null(), rel::Value::null(),
                    rel::Value(std::string("\0binary\xff\n", 9))});
  t.append(rel::Row{rel::Value(std::int64_t{1}), rel::Value(2.5),
                    rel::Value("with\nnewline and 'quotes'")});
  db.clobs().append("<clob>payload</clob>");
  db.clobs().append(std::string("\0binary-ish\n", 12));

  std::stringstream stream;
  rel::save_database(db, stream);

  rel::Database loaded;
  rel::Table& lt = loaded.create_table("t", mixed_schema());
  lt.create_hash_index("by_i", {"i"});
  rel::load_database_into(loaded, stream);

  ASSERT_EQ(lt.row_count(), 3u);
  EXPECT_EQ(lt.row(0)[0].as_int(), -7);
  // Bit-exact doubles.
  EXPECT_EQ(lt.row(0)[1].as_double(), 0.1);
  // Interned values serialize by content and come back as owned strings.
  EXPECT_EQ(lt.row(0)[2].as_string(), kInterned);
  EXPECT_FALSE(lt.row(0)[2].is_interned());
  EXPECT_TRUE(lt.row(1)[0].is_null());
  EXPECT_TRUE(lt.row(1)[1].is_null());
  EXPECT_EQ(lt.row(1)[2].as_string(), std::string("\0binary\xff\n", 9));
  EXPECT_EQ(lt.row(2)[2].as_string(), "with\nnewline and 'quotes'");
  // Index was rebuilt on load.
  EXPECT_EQ(lt.index("by_i")->lookup(rel::Key{{rel::Value(std::int64_t{-7})}}).size(), 1u);
  ASSERT_EQ(loaded.clobs().count(), 2u);
  EXPECT_EQ(loaded.clobs().get(0), "<clob>payload</clob>");
  EXPECT_EQ(loaded.clobs().get(1), std::string("\0binary-ish\n", 12));
}

TEST(DatabaseSerialize, LoadClearsExistingRowsAndClobs) {
  rel::Database db;
  db.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  std::stringstream stream;
  rel::save_database(db, stream);  // empty table, no CLOBs

  rel::Database target;
  rel::Table& t = target.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  rel::Table& absent = target.create_table("absent", rel::TableSchema{{"y", rel::Type::kInt}});
  t.append(rel::Row{rel::Value(std::int64_t{9})});
  absent.append(rel::Row{rel::Value(std::int64_t{3})});
  target.clobs().append("stale");
  rel::load_database_into(target, stream);
  EXPECT_EQ(t.row_count(), 0u);
  // A table the stream does not carry is truncated too.
  EXPECT_EQ(absent.row_count(), 0u);
  EXPECT_EQ(target.clobs().count(), 0u);
}

TEST(DatabaseSerialize, ToleratesLeadingWhitespace) {
  rel::Database db;
  db.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  std::stringstream stream;
  stream << "\n";  // the seam the catalog stream's text header leaves
  rel::save_database(db, stream);

  rel::Database target;
  target.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  EXPECT_NO_THROW(rel::load_database_into(target, stream));
}

TEST(DatabaseSerialize, RejectsBadMagicUnknownTableArityMismatchAndTruncation) {
  rel::Database db;
  rel::Table& t = db.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  t.append(rel::Row{rel::Value(std::int64_t{1})});
  std::stringstream saved;
  rel::save_database(db, saved);
  const std::string bytes = saved.str();

  rel::Database same;
  same.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}});
  std::stringstream bad("XXXXXXXX");
  EXPECT_THROW(rel::load_database_into(same, bad), rel::SerializeError);

  rel::Database missing;
  missing.create_table("u", rel::TableSchema{{"x", rel::Type::kInt}});
  std::stringstream unknown_table(bytes);
  EXPECT_THROW(rel::load_database_into(missing, unknown_table), rel::SerializeError);

  rel::Database wider;
  wider.create_table("t", rel::TableSchema{{"x", rel::Type::kInt}, {"y", rel::Type::kInt}});
  std::stringstream arity(bytes);
  EXPECT_THROW(rel::load_database_into(wider, arity), rel::SerializeError);

  // Truncated at every length short of the full stream: an error, never a
  // partial load that looks complete.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(rel::load_database_into(same, truncated), rel::SerializeError)
        << "cut at " << cut;
  }
}

core::CatalogConfig auto_define_config() {
  core::CatalogConfig config;
  config.shred.auto_define_dynamic = true;
  return config;
}

TEST(CatalogPersistence, FullSaveRestoreRoundTrip) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog original(schema, workload::lead_annotations(),
                                 auto_define_config());
  workload::DocumentGenerator generator;
  const auto docs = generator.corpus(40);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    original.ingest(docs[i], "d" + std::to_string(i), "alice");
  }
  original.thesaurus().add_synonym("spacing", "", "dx", "ARPS");

  std::stringstream stream;
  original.save(stream);

  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog restored(schema2, workload::lead_annotations(),
                                 auto_define_config());
  restored.restore(stream);

  // Same definitions.
  EXPECT_EQ(restored.registry().attribute_count(), original.registry().attribute_count());
  EXPECT_EQ(restored.registry().element_count(), original.registry().element_count());

  // Same query results.
  workload::QueryGenerator queries;
  for (std::uint64_t q = 0; q < 20; ++q) {
    const core::ObjectQuery query = queries.generate(q);
    EXPECT_EQ(restored.query(query), original.query(query)) << "query " << q;
  }

  // Same reconstructed documents.
  for (std::size_t i = 0; i < docs.size(); i += 9) {
    EXPECT_EQ(xml::canonical(docs[i]),
              xml::canonical(restored.fetch(static_cast<core::ObjectId>(i))));
  }

  // The thesaurus survived.
  EXPECT_TRUE(restored.thesaurus().resolve("spacing", "").has_value());
}

TEST(CatalogPersistence, IngestContinuesAfterRestore) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog original(schema, workload::lead_annotations(),
                                 auto_define_config());
  const auto id = original.ingest_xml(workload::fig3_document(), "fig3", "alice");

  std::stringstream stream;
  original.save(stream);

  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog restored(schema2, workload::lead_annotations(),
                                 auto_define_config());
  restored.restore(stream);

  // New objects get fresh ids; late inserts continue the right sequences.
  const auto next = restored.ingest_xml(workload::fig3_document(), "again", "alice");
  EXPECT_EQ(next, id + 1);
  restored.add_attribute(
      id, "data/idinfo/keywords/theme",
      *xml::parse_fragment(
          "<theme><themekt>CF NetCDF</themekt><themekey>air_temperature</themekey></theme>"));
  const xml::Document doc = restored.fetch(id);
  const auto themes = xml::select(*doc.root, "data/idinfo/keywords/theme");
  ASSERT_EQ(themes.size(), 3u);
  EXPECT_EQ(themes[2]->child_text("themekey"), "air_temperature");
}

TEST(CatalogPersistence, RestoreRequiresFreshCatalogAndMatchingSchema) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog original(schema, workload::lead_annotations(),
                                 auto_define_config());
  original.ingest_xml(workload::fig3_document(), "fig3", "alice");
  std::stringstream stream;
  original.save(stream);

  // A catalog that already auto-defined dynamic attributes cannot restore.
  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog dirty(schema2, workload::lead_annotations(),
                              auto_define_config());
  dirty.ingest_xml(workload::fig3_document(), "other", "bob");
  EXPECT_THROW(dirty.restore(stream), core::ValidationError);
}

/// A saved one-document catalog stream with its version digit replaced.
std::string stream_with_version(char version) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog original(schema, workload::lead_annotations(),
                                 auto_define_config());
  original.ingest_xml(workload::fig3_document(), "fig3", "alice");
  std::stringstream saved;
  original.save(saved);
  std::string bytes = saved.str();
  EXPECT_EQ(bytes.rfind("HXRCCAT 4\n", 0), 0u);
  bytes[8] = version;
  return bytes;
}

/// Restoring `bytes` throws ValidationError and leaves the catalog empty.
void expect_rejected(const std::string& bytes) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog restored(schema, workload::lead_annotations(),
                                 auto_define_config());
  std::stringstream stream(bytes);
  EXPECT_THROW(restored.restore(stream), core::ValidationError);
  EXPECT_EQ(restored.object_count(), 0u);
}

TEST(CatalogPersistence, RestoreRejectsTextFormatHeader) {
  expect_rejected(stream_with_version('1'));  // the retired text format
}

TEST(CatalogPersistence, RestoreRejectsVersionTwoHeader) {
  // Version 2 carried the retired collection tables.
  expect_rejected(stream_with_version('2'));
}

TEST(CatalogPersistence, RestoreRejectsVersionThreeHeader) {
  // Version 3 carried definitions and tombstones as text sections.
  expect_rejected(stream_with_version('3'));
}

TEST(CatalogPersistence, RoundTripsUserDefinitionsAndTombstones) {
  xml::Schema schema = workload::lead_schema();
  core::MetadataCatalog original(schema, workload::lead_annotations(),
                                 auto_define_config());
  original.define_dynamic_attribute("qc", "mine", {{"score", xml::LeafType::kDouble, ""}},
                                    core::Visibility::kUser, "alice");
  original.define_dynamic_attribute("qc", "mine", {}, core::Visibility::kUser, "bob");
  const auto id = original.ingest_xml(workload::fig3_document(), "fig3", "alice");
  original.ingest_xml(workload::fig3_document(), "again", "alice");
  original.delete_object(id);
  original.delete_object(id);  // a second delete adds no tombstone
  EXPECT_EQ(original.deleted_count(), 1u);

  std::stringstream stream;
  original.save(stream);
  xml::Schema schema2 = workload::lead_schema();
  core::MetadataCatalog restored(schema2, workload::lead_annotations(),
                                 auto_define_config());
  restored.restore(stream);

  EXPECT_EQ(restored.deleted_count(), 1u);
  EXPECT_TRUE(restored.is_deleted(id));
  EXPECT_FALSE(restored.is_deleted(id + 1));
  EXPECT_EQ(restored.registry().attribute_count(), original.registry().attribute_count());
  EXPECT_EQ(restored.registry().element_count(), original.registry().element_count());
  const core::DefinitionRegistry& registry = restored.registry();
  EXPECT_FALSE(registry.find_attribute("qc", "mine", core::kNoAttr).has_value());
  const auto alice = registry.find_attribute("qc", "mine", core::kNoAttr, "alice");
  const auto bob = registry.find_attribute("qc", "mine", core::kNoAttr, "bob");
  ASSERT_TRUE(alice.has_value());
  ASSERT_TRUE(bob.has_value());
  EXPECT_NE(alice->id, bob->id);
  EXPECT_EQ(alice->visibility, core::Visibility::kUser);
  EXPECT_EQ(bob->owner, "bob");
  EXPECT_TRUE(registry.find_element("score", "mine", alice->id).has_value());
  EXPECT_FALSE(registry.find_element("score", "mine", bob->id).has_value());
}

}  // namespace
}  // namespace hxrc
