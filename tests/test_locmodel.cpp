// Tests for the location model substrate: geometry primitives, building
// queries (room membership, wall crossing) and the Resolver component.

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/geo/local_frame.hpp"
#include "perpos/locmodel/building.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/locmodel/geometry.hpp"
#include "perpos/locmodel/resolver.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace lm = perpos::locmodel;
namespace core = perpos::core;
namespace geo = perpos::geo;
using lm::LocalPoint;
using lm::Segment;

TEST(Geometry, SegmentLength) {
  EXPECT_DOUBLE_EQ((Segment{{0, 0}, {3, 4}}).length(), 5.0);
  EXPECT_DOUBLE_EQ((Segment{{1, 1}, {1, 1}}).length(), 0.0);
}

TEST(Geometry, PointInSquare) {
  const lm::Polygon square{{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  EXPECT_TRUE(lm::point_in_polygon({5, 5}, square));
  EXPECT_TRUE(lm::point_in_polygon({0, 0}, square));    // Vertex: inside.
  EXPECT_TRUE(lm::point_in_polygon({5, 0}, square));    // Edge: inside.
  EXPECT_FALSE(lm::point_in_polygon({10.01, 5}, square));
  EXPECT_FALSE(lm::point_in_polygon({-0.01, 5}, square));
}

TEST(Geometry, PointInConcavePolygon) {
  // An L-shape: the notch must be outside.
  const lm::Polygon ell{{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}};
  EXPECT_TRUE(lm::point_in_polygon({2, 8}, ell));
  EXPECT_TRUE(lm::point_in_polygon({8, 2}, ell));
  EXPECT_FALSE(lm::point_in_polygon({8, 8}, ell));  // In the notch.
}

TEST(Geometry, DegeneratePolygonContainsNothing) {
  EXPECT_FALSE(lm::point_in_polygon({0, 0}, {}));
  EXPECT_FALSE(lm::point_in_polygon({0, 0}, {{0, 0}, {1, 1}}));
}

// Parameterized crossing tests: movement vs one wall.
struct CrossCase {
  Segment move;
  Segment wall;
  bool crosses;
};

// Names each instance by its values ("(0,0)-(2,2) x (0,2)-(2,0): crosses"),
// not by the struct's raw bytes, whose padding changes from run to run.
void PrintTo(const CrossCase& c, std::ostream* os) {
  const auto segment = [os](const Segment& s) {
    *os << '(' << s.a.x << ',' << s.a.y << ")-(" << s.b.x << ',' << s.b.y
        << ')';
  };
  segment(c.move);
  *os << " x ";
  segment(c.wall);
  *os << (c.crosses ? ": crosses" : ": apart");
}

class SegmentIntersect : public ::testing::TestWithParam<CrossCase> {};

TEST_P(SegmentIntersect, Matches) {
  const CrossCase& c = GetParam();
  EXPECT_EQ(lm::segments_intersect(c.move, c.wall), c.crosses);
  EXPECT_EQ(lm::segments_intersect(c.wall, c.move), c.crosses);  // Symmetric.
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SegmentIntersect,
    ::testing::Values(
        CrossCase{{{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}, true},    // X cross.
        CrossCase{{{0, 0}, {1, 1}}, {{3, 3}, {4, 4}}, false},   // Disjoint.
        CrossCase{{{0, 0}, {2, 0}}, {{1, 0}, {3, 0}}, true},    // Overlap.
        CrossCase{{{0, 0}, {1, 0}}, {{1, 0}, {1, 5}}, true},    // Touch end.
        CrossCase{{{0, 0}, {0.99, 0}}, {{1, -1}, {1, 1}}, false},
        CrossCase{{{0, 0}, {5, 0}}, {{2, -1}, {2, 1}}, true},   // Through.
        CrossCase{{{0, 1}, {5, 1}}, {{0, 0}, {5, 0}}, false})); // Parallel.

TEST(Geometry, IntersectionPoint) {
  const auto p = lm::segment_intersection({{0, 0}, {2, 2}}, {{0, 2}, {2, 0}});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-12);
  EXPECT_NEAR(p->y, 1.0, 1e-12);
  EXPECT_FALSE(
      lm::segment_intersection({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}).has_value());
}

TEST(Geometry, DistanceToSegment) {
  const Segment s{{0, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(lm::distance_to_segment({5, 3}, s), 3.0);
  EXPECT_DOUBLE_EQ(lm::distance_to_segment({-3, 4}, s), 5.0);  // Clamped.
  EXPECT_DOUBLE_EQ(lm::distance_to_segment({5, 0}, s), 0.0);
}

TEST(Geometry, PolygonAreaAndCentroid) {
  const lm::Polygon square{{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_DOUBLE_EQ(lm::polygon_area(square), 16.0);
  const LocalPoint c = lm::polygon_centroid(square);
  EXPECT_NEAR(c.x, 2.0, 1e-12);
  EXPECT_NEAR(c.y, 2.0, 1e-12);
  // Clockwise orientation gives negative area.
  const lm::Polygon cw{{0, 0}, {0, 4}, {4, 4}, {4, 0}};
  EXPECT_DOUBLE_EQ(lm::polygon_area(cw), -16.0);
}

TEST(Building, TwoRoomFixtureQueries) {
  const lm::Building b = lm::make_two_room_building();
  ASSERT_EQ(b.rooms().size(), 2u);
  EXPECT_EQ(b.room_at({2, 2})->id, "A");
  EXPECT_EQ(b.room_at({7, 2})->id, "B");
  EXPECT_EQ(b.room_at({20, 20}), nullptr);
  EXPECT_NE(b.room("A"), nullptr);
  EXPECT_EQ(b.room("Z"), nullptr);
}

TEST(Building, WallCrossingRespectsDoor) {
  const lm::Building b = lm::make_two_room_building();
  // Straight through the shared wall at y=1 (wall spans y 0..2): crosses.
  EXPECT_TRUE(b.crosses_wall({4, 1}, {6, 1}));
  // Through the door gap at y=2.5 (gap spans y 2..3): free passage.
  EXPECT_FALSE(b.crosses_wall({4, 2.5}, {6, 2.5}));
  // Within one room: no crossing.
  EXPECT_FALSE(b.crosses_wall({1, 1}, {4, 4}));
}

TEST(Building, WallAttenuationAccumulates) {
  const lm::Building b = lm::make_two_room_building();
  EXPECT_DOUBLE_EQ(b.wall_attenuation_db({4, 1}, {6, 1}), 5.0);
  EXPECT_DOUBLE_EQ(b.wall_attenuation_db({1, 1}, {4, 1}), 0.0);
  // Crossing the shared wall AND an outer wall.
  EXPECT_GE(b.wall_attenuation_db({4, 1}, {11, 1}), 10.0);
}

TEST(Building, AdjacencyIsSymmetric) {
  const lm::Building b = lm::make_two_room_building();
  EXPECT_EQ(b.adjacent_rooms("A"), std::vector<std::string>{"B"});
  EXPECT_EQ(b.adjacent_rooms("B"), std::vector<std::string>{"A"});
  EXPECT_TRUE(b.adjacent_rooms("Z").empty());
}

TEST(Building, OfficeFixtureLayout) {
  const lm::Building b = lm::make_office_building();
  EXPECT_EQ(b.rooms().size(), 11u);  // 8 offices + corridor + lobby + lab.
  EXPECT_EQ(b.room_at({12, 4})->id, "O-S2");
  EXPECT_EQ(b.room_at({12, 10})->id, "CORR");
  EXPECT_EQ(b.room_at({2, 10})->id, "LOBBY");
  EXPECT_EQ(b.room_at({36, 10})->id, "LAB");
  EXPECT_EQ(b.room_at({20, 16})->id, "O-N3");
}

TEST(Building, OfficeFixtureDoorways) {
  const lm::Building b = lm::make_office_building();
  // Corridor to O-S2 through its door at x=12: free.
  EXPECT_FALSE(b.crosses_wall({12, 10}, {12, 7}));
  // Corridor into O-S2 away from the door: blocked.
  EXPECT_TRUE(b.crosses_wall({9, 10}, {9, 7}));
  // Office to office through the partition: blocked.
  EXPECT_TRUE(b.crosses_wall({4, 4}, {12, 4}));
  // Corridor into the lab through its door: free.
  EXPECT_FALSE(b.crosses_wall({31, 10}, {33, 10}));
}

TEST(Building, FootprintCoversRooms) {
  const lm::Building b = lm::make_office_building();
  EXPECT_TRUE(b.inside_footprint({20, 10}));
  EXPECT_TRUE(b.inside_footprint({0, 0}));
  EXPECT_FALSE(b.inside_footprint({-5, 10}));
  EXPECT_FALSE(b.inside_footprint({45, 10}));
}

TEST(Building, NearestRoom) {
  const lm::Building b = lm::make_two_room_building();
  EXPECT_EQ(b.nearest_room({0, 0})->id, "A");
  EXPECT_EQ(b.nearest_room({10, 5})->id, "B");
  EXPECT_EQ(b.nearest_room({100, 0})->id, "B");
  EXPECT_EQ(b.nearest_room({0, 0}, /*floor=*/3), nullptr);
}

TEST(Building, RoomsOnOtherFloorsIgnored) {
  lm::BuildingBuilder bb("MULTI", geo::GeoPoint{56.0, 10.0, 0.0});
  bb.rect_room("G", 0, 0, 5, 5, 0);
  bb.rect_room("F1", 0, 0, 5, 5, 1);
  const lm::Building b = bb.build();
  EXPECT_EQ(b.room_at({1, 1}, 0)->id, "G");
  EXPECT_EQ(b.room_at({1, 1}, 1)->id, "F1");
  EXPECT_EQ(b.room_at({1, 1}, 2), nullptr);
}

TEST(Resolver, ResolvesPositionFixToRoom) {
  const lm::Building building = lm::make_two_room_building();
  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<core::PositionFix>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto r = g.add(std::make_shared<lm::RoomResolver>(building));
  const auto z = g.add(sink);
  g.connect(a, r);
  g.connect(r, z);

  core::PositionFix fix;
  fix.position = building.frame().to_geodetic(LocalPoint{2.0, 2.0});
  fix.horizontal_accuracy_m = 1.0;
  source->push(fix);

  ASSERT_TRUE(sink->last().has_value());
  const auto& room = sink->last()->payload.as<core::RoomFix>();
  EXPECT_EQ(room.room, "A");
  EXPECT_EQ(room.building, "TWOROOM");
  EXPECT_GT(room.confidence, 0.0);
}

TEST(Resolver, ResolvesLocalPositionDirectly) {
  const lm::Building building = lm::make_two_room_building();
  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "Wifi", std::vector<core::DataSpec>{core::provide<lm::LocalPosition>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  auto resolver = std::make_shared<lm::RoomResolver>(building);
  lm::RoomResolver* resolver_ptr = resolver.get();
  const auto a = g.add(source);
  const auto r = g.add(resolver);
  const auto z = g.add(sink);
  g.connect(a, r);
  g.connect(r, z);

  source->push(lm::LocalPosition{{7.0, 2.0}, 0, 2.0, {}});
  EXPECT_EQ(sink->last()->payload.as<core::RoomFix>().room, "B");

  // Outside every room: a miss with empty room id.
  source->push(lm::LocalPosition{{50.0, 50.0}, 0, 2.0, {}});
  EXPECT_TRUE(sink->last()->payload.as<core::RoomFix>().room.empty());
  EXPECT_EQ(resolver_ptr->misses(), 1u);
}

TEST(Resolver, ConfidenceDropsWithPoorAccuracy) {
  const lm::Building building = lm::make_two_room_building();
  core::ProcessingGraph g;
  auto source = std::make_shared<core::SourceComponent>(
      "Wifi", std::vector<core::DataSpec>{core::provide<lm::LocalPosition>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto r = g.add(std::make_shared<lm::RoomResolver>(building));
  const auto z = g.add(sink);
  g.connect(a, r);
  g.connect(r, z);

  source->push(lm::LocalPosition{{2.0, 2.0}, 0, 1.0, {}});
  const double good = sink->last()->payload.as<core::RoomFix>().confidence;
  source->push(lm::LocalPosition{{2.0, 2.0}, 0, 20.0, {}});
  const double poor = sink->last()->payload.as<core::RoomFix>().confidence;
  EXPECT_GT(good, poor);
}
