#include <gtest/gtest.h>

#include <set>

#include "rel/catalog.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/tuple.h"
#include "rel/value.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pictdb::rel {
namespace {

using geom::Geometry;
using geom::Point;
using geom::Rect;
using storage::Rid;

struct Env {
  Env() : disk(512), pool(&disk, 4096) {}
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool;
};

Schema CitySchema() {
  return Schema({{"city", ValueType::kString},
                 {"population", ValueType::kInt},
                 {"loc", ValueType::kGeometry}});
}

/// "c<i>", built by appending: GCC 12 misreads `"c" + std::string&&` as
/// an overlapping memcpy (-Wrestrict) in optimized builds.
std::string CityName(int i) {
  std::string name = "c";
  name += std::to_string(i);
  return name;
}

Tuple CityTuple(const std::string& name, int64_t pop, double x, double y) {
  return Tuple({Value(name), Value(pop), Value(Geometry(Point{x, y}))});
}

// --- Value ---------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{42}).as_int(), 42);
  EXPECT_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value(std::string("hi")).as_string(), "hi");
  EXPECT_TRUE(Value(Geometry(Point{1, 2})).as_geometry().is_point());
}

TEST(ValueTest, NumericComparisonsCrossType) {
  EXPECT_EQ(*Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(*Value(int64_t{2}).Compare(Value(2.5)), 0);
  EXPECT_GT(*Value(3.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(*Value(std::string("abc")).Compare(Value(std::string("abd"))), 0);
  EXPECT_EQ(*Value(std::string("x")).Compare(Value(std::string("x"))), 0);
}

TEST(ValueTest, NullsCompareFirst) {
  EXPECT_EQ(*Value().Compare(Value()), 0);
  EXPECT_LT(*Value().Compare(Value(int64_t{0})), 0);
  EXPECT_GT(*Value(int64_t{0}).Compare(Value()), 0);
}

TEST(ValueTest, IncomparableTypesError) {
  EXPECT_FALSE(Value(std::string("a")).Compare(Value(int64_t{1})).ok());
  EXPECT_FALSE(
      Value(Geometry(Point{0, 0})).Compare(Value(int64_t{1})).ok());
}

TEST(ValueTest, SerializeRoundTripAllTypes) {
  const std::vector<Value> values = {
      Value(), Value(int64_t{-7}), Value(3.25), Value(std::string("hello")),
      Value(Geometry(Rect(0, 0, 5, 5)))};
  for (const Value& v : values) {
    std::string bytes;
    v.SerializeTo(&bytes);
    size_t offset = 0;
    auto back = Value::DeserializeFrom(bytes, &offset);
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(offset, bytes.size());
    EXPECT_EQ(back->type(), v.type());
    EXPECT_EQ(back->ToString(), v.ToString());
  }
}

TEST(ValueTest, DeserializeRejectsTruncation) {
  Value v(std::string("hello world"));
  std::string bytes;
  v.SerializeTo(&bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t offset = 0;
    const std::string prefix = bytes.substr(0, cut);
    EXPECT_FALSE(Value::DeserializeFrom(prefix, &offset).ok()) << cut;
  }
}

// --- Schema / Tuple ----------------------------------------------------------------

TEST(SchemaTest, LookupAndDisplay) {
  const Schema s = CitySchema();
  EXPECT_EQ(*s.IndexOf("population"), 1u);
  EXPECT_FALSE(s.IndexOf("nope").ok());
  EXPECT_TRUE(s.HasColumn("loc"));
  EXPECT_EQ(s.ToString("cities"),
            "cities(city string, population int, loc geometry)");
}

TEST(TupleTest, ConformanceChecks) {
  const Schema s = CitySchema();
  EXPECT_TRUE(CityTuple("A", 1, 0, 0).ConformsTo(s).ok());
  // Wrong arity.
  EXPECT_FALSE(Tuple({Value(int64_t{1})}).ConformsTo(s).ok());
  // Wrong type.
  EXPECT_FALSE(Tuple({Value(int64_t{1}), Value(int64_t{2}),
                      Value(Geometry(Point{0, 0}))})
                   .ConformsTo(s)
                   .ok());
  // Nulls conform to any column.
  EXPECT_TRUE(
      Tuple({Value(), Value(), Value()}).ConformsTo(s).ok());
}

TEST(TupleTest, SerializeRoundTrip) {
  const Tuple t = CityTuple("Chicago", 2693976, -87.6, 41.9);
  auto back = Tuple::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), t.ToString());
}

// --- Relation ------------------------------------------------------------------------

TEST(RelationTest, InsertGetDelete) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  auto rid = rel->Insert(CityTuple("Chicago", 2693976, -87.6, 41.9));
  ASSERT_TRUE(rid.ok());
  auto tuple = rel->Get(*rid);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->at(0).as_string(), "Chicago");
  ASSERT_TRUE(rel->Delete(*rid).ok());
  EXPECT_FALSE(rel->Get(*rid).ok());
  EXPECT_EQ(*rel->Count(), 0u);
}

TEST(RelationTest, RejectsNonConformingTuple) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_FALSE(rel->Insert(Tuple({Value(int64_t{5})})).ok());
}

TEST(RelationTest, BTreeIndexBackfillsAndMaintains) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  // Pre-index rows.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        rel->Insert(CityTuple(CityName(i), i * 100, i, i)).ok());
  }
  ASSERT_TRUE(rel->CreateBTreeIndex("population").ok());
  EXPECT_TRUE(rel->HasBTreeIndex("population"));
  // Post-index rows.
  std::vector<Rid> extra;
  for (int i = 20; i < 30; ++i) {
    auto rid =
        rel->Insert(CityTuple(CityName(i), i * 100, i, i));
    ASSERT_TRUE(rid.ok());
    extra.push_back(*rid);
  }
  // Range [500, 1500]: populations 500,600,...,1500 -> 11 rows.
  auto rids = rel->IndexRange("population", Value(int64_t{500}),
                              Value(int64_t{1500}));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 11u);
  // Deletion removes index entries.
  ASSERT_TRUE(rel->Delete(extra[0]).ok());  // population 2000
  auto after = rel->IndexRange("population", Value(int64_t{2000}),
                               Value(int64_t{2000}));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(RelationTest, IndexRangeOpenEnds) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        rel->Insert(CityTuple(CityName(i), i, i, i)).ok());
  }
  ASSERT_TRUE(rel->CreateBTreeIndex("population").ok());
  auto below = rel->IndexRange("population", Value(), Value(int64_t{4}));
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->size(), 5u);
  auto above = rel->IndexRange("population", Value(int64_t{7}), Value());
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(above->size(), 3u);
}

TEST(RelationTest, BTreeIndexRejectsGeometryColumn) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->CreateBTreeIndex("loc").IsInvalidArgument());
  EXPECT_TRUE(rel->CreateBTreeIndex("nope").IsNotFound());
}

TEST(RelationTest, SpatialIndexPackedAndMaintained) {
  Env env;
  auto rel = Relation::Create(&env.pool, "cities", CitySchema());
  ASSERT_TRUE(rel.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rel->Insert(CityTuple(CityName(i), i,
                                      i * 10.0, (i % 7) * 10.0))
                    .ok());
  }
  rtree::RTreeOptions opts;
  opts.max_entries = 4;
  ASSERT_TRUE(rel->CreateSpatialIndex("loc", opts).ok());
  EXPECT_TRUE(rel->HasSpatialIndex("loc"));
  auto index = rel->SpatialIndex("loc");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->Size(), 40u);
  ASSERT_TRUE((*index)->Validate().ok());

  // Insert after indexing: the R-tree follows.
  auto rid = rel->Insert(CityTuple("new", 1, 555, 5));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*index)->Size(), 41u);
  auto hits = (*index)->SearchPoint(Point{555, 5});
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_TRUE((*hits)[0].rid == *rid);

  // Delete removes from the R-tree.
  ASSERT_TRUE(rel->Delete(*rid).ok());
  EXPECT_EQ((*index)->Size(), 40u);
  EXPECT_TRUE((*index)->SearchPoint(Point{555, 5})->empty());
}

TEST(RelationTest, SpatialLoaderVariants) {
  for (const auto loader :
       {Relation::SpatialLoader::kPack, Relation::SpatialLoader::kStr,
        Relation::SpatialLoader::kHilbert,
        Relation::SpatialLoader::kInsert}) {
    Env env;
    auto rel = Relation::Create(&env.pool, "cities", CitySchema());
    ASSERT_TRUE(rel.ok());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(rel->Insert(CityTuple(CityName(i), i,
                                        i * 7.0, i * 3.0))
                      .ok());
    }
    rtree::RTreeOptions opts;
    opts.max_entries = 4;
    opts.min_entries = 2;
    ASSERT_TRUE(rel->CreateSpatialIndex("loc", opts, loader).ok());
    auto index = rel->SpatialIndex("loc");
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index)->Size(), 25u);
    ASSERT_TRUE((*index)->Validate().ok());
  }
}

// --- Catalog -----------------------------------------------------------------------------

TEST(CatalogTest, RelationLifecycle) {
  Env env;
  Catalog catalog(&env.pool);
  ASSERT_TRUE(catalog.CreateRelation("cities", CitySchema()).ok());
  EXPECT_TRUE(
      catalog.CreateRelation("cities", CitySchema()).IsAlreadyExists());
  EXPECT_TRUE(catalog.GetRelation("cities").ok());
  EXPECT_TRUE(catalog.GetRelation("nope").status().IsNotFound());
  EXPECT_EQ(catalog.RelationNames().size(), 1u);
}

TEST(CatalogTest, PicturesAndAssociations) {
  Env env;
  Catalog catalog(&env.pool);
  ASSERT_TRUE(catalog.CreateRelation("cities", CitySchema()).ok());
  auto cities = catalog.GetRelation("cities");
  ASSERT_TRUE(cities.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*cities)
                    ->Insert(CityTuple(CityName(i), i, i, i))
                    .ok());
  }
  ASSERT_TRUE(catalog.CreatePicture("us-map", Rect(0, 0, 100, 100)).ok());
  EXPECT_TRUE(catalog.CreatePicture("us-map", Rect(0, 0, 1, 1))
                  .IsAlreadyExists());
  EXPECT_FALSE(catalog.CreatePicture("bad", Rect()).ok());

  rtree::RTreeOptions opts;
  opts.max_entries = 4;
  ASSERT_TRUE(catalog.Associate("us-map", "cities", "loc", opts).ok());
  auto column = catalog.AssociationColumn("us-map", "cities");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(*column, "loc");
  EXPECT_TRUE((*cities)->HasSpatialIndex("loc"));
  EXPECT_TRUE(
      catalog.AssociationColumn("us-map", "lakes").status().IsNotFound());
}

TEST(CatalogTest, RelationOnMultiplePictures) {
  Env env;
  Catalog catalog(&env.pool);
  ASSERT_TRUE(catalog.CreateRelation("cities", CitySchema()).ok());
  ASSERT_TRUE(catalog.CreatePicture("a", Rect(0, 0, 10, 10)).ok());
  ASSERT_TRUE(catalog.CreatePicture("b", Rect(0, 0, 10, 10)).ok());
  ASSERT_TRUE(catalog.Associate("a", "cities", "loc").ok());
  // Second association reuses the existing index.
  ASSERT_TRUE(catalog.Associate("b", "cities", "loc").ok());
  EXPECT_TRUE(catalog.AssociationColumn("a", "cities").ok());
  EXPECT_TRUE(catalog.AssociationColumn("b", "cities").ok());
}

}  // namespace
}  // namespace pictdb::rel
