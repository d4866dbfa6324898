// Topology-layer tests: the route table must be *exhaustively* correct —
// every (src, dst) pair on every topology walks to its destination in
// exactly the minimal hop count — and the torus/ring dateline scheme must
// make the channel-dependency graph acyclic (the structural proof that the
// wrap links cannot deadlock).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "nbtinoc/noc/routing.hpp"
#include "nbtinoc/noc/topology.hpp"
#include "nbtinoc/sim/scenario.hpp"

namespace nbtinoc::noc {
namespace {

struct TopoCase {
  const char* topology;
  int width;
  int height;
  int concentration;
  RoutingAlgo routing;
};

std::string PrintToString(const TopoCase& tc) {
  std::string s = std::string(tc.topology) + "_" + std::to_string(tc.width) + "x" +
                  std::to_string(tc.height);
  if (tc.concentration != 1) s += "_c" + std::to_string(tc.concentration);
  s += tc.routing == RoutingAlgo::kXY ? "_XY" : "_YX";
  return s;
}

NocConfig config_of(const TopoCase& tc) {
  NocConfig c;
  c.width = tc.width;
  c.height = tc.height;
  c.topology = parse_topology_kind(tc.topology);
  c.concentration = tc.concentration;
  c.num_vcs = 2;  // >= vc_classes() on every topology
  c.routing = tc.routing;
  c.validate();
  return c;
}

// The size grid: every topology over several shapes, both DOR orders where
// the order matters (the ring routes in one dimension).
const TopoCase kCases[] = {
    {"mesh", 2, 2, 1, RoutingAlgo::kXY},  {"mesh", 4, 4, 1, RoutingAlgo::kXY},
    {"mesh", 3, 5, 1, RoutingAlgo::kYX},  {"mesh", 5, 3, 1, RoutingAlgo::kXY},
    {"mesh", 1, 4, 1, RoutingAlgo::kXY},  {"mesh", 4, 1, 1, RoutingAlgo::kYX},
    {"torus", 2, 2, 1, RoutingAlgo::kXY}, {"torus", 4, 4, 1, RoutingAlgo::kXY},
    {"torus", 4, 4, 1, RoutingAlgo::kYX}, {"torus", 3, 3, 1, RoutingAlgo::kXY},
    {"torus", 2, 5, 1, RoutingAlgo::kXY}, {"torus", 5, 2, 1, RoutingAlgo::kYX},
    {"ring", 2, 1, 1, RoutingAlgo::kXY},  {"ring", 3, 1, 1, RoutingAlgo::kXY},
    {"ring", 4, 2, 1, RoutingAlgo::kXY},  {"ring", 4, 4, 1, RoutingAlgo::kXY},
    {"cmesh", 4, 4, 2, RoutingAlgo::kXY}, {"cmesh", 4, 4, 2, RoutingAlgo::kYX},
    {"cmesh", 4, 2, 4, RoutingAlgo::kXY}, {"cmesh", 6, 3, 3, RoutingAlgo::kXY},
    {"cmesh", 4, 4, 1, RoutingAlgo::kXY},
};

class TopologyTest : public ::testing::TestWithParam<TopoCase> {};

// Every (src, dst) pair: following the route table from src's router must
// reach dst's router in exactly hop_distance() hops and eject through the
// local port wired to dst — no livelock, no misroute, on any topology.
TEST_P(TopologyTest, RouteTableWalksEveryPairToItsDestination) {
  const NocConfig config = config_of(GetParam());
  const auto topo = Topology::create(config);
  const int classes = topo->num_vc_classes();
  for (NodeId src = 0; src < topo->num_terminals(); ++src) {
    for (NodeId dst = 0; dst < topo->num_terminals(); ++dst) {
      const int bound = topo->hop_distance(src, dst);
      NodeId r = topo->router_of(src);
      int hops = 0;
      while (true) {
        const RouteEntry entry = topo->route(r, dst);
        ASSERT_GE(entry.vc_class, 0);
        ASSERT_LT(entry.vc_class, classes);
        if (is_local(entry.dir())) {
          EXPECT_EQ(topo->terminal_of(r, local_slot(entry.dir())), dst)
              << "src " << src << " ejected at the wrong terminal";
          break;
        }
        const NodeId next = topo->neighbor(r, entry.dir());
        ASSERT_NE(next, kInvalidNode)
            << "route at router " << r << " for dst " << dst << " exits an unwired port";
        r = next;
        ASSERT_LE(++hops, bound) << "src " << src << " -> dst " << dst << " overshoots";
      }
      EXPECT_EQ(hops, bound) << "src " << src << " -> dst " << dst << " is not minimal";
      const int icls = topo->inject_class(src, dst);
      EXPECT_GE(icls, 0);
      EXPECT_LT(icls, classes);
    }
  }
}

// Structural deadlock-freedom: the channel-dependency graph over
// (router, input port, dateline class) VCs, with edges added for every hop
// transition any (src, dst) walk makes, must be acyclic.
TEST_P(TopologyTest, ChannelDependencyGraphIsAcyclic) {
  const NocConfig config = config_of(GetParam());
  const auto topo = Topology::create(config);
  const int P = topo->ports_per_router();
  const int C = topo->num_vc_classes();
  const auto vc_node = [&](NodeId router, Dir in_port, int cls) {
    return (router * P + static_cast<int>(in_port)) * C + cls;
  };
  const int num_nodes = topo->num_routers() * P * C;
  std::vector<std::vector<int>> edges(static_cast<std::size_t>(num_nodes));

  for (NodeId src = 0; src < topo->num_terminals(); ++src) {
    for (NodeId dst = 0; dst < topo->num_terminals(); ++dst) {
      NodeId r = topo->router_of(src);
      // The injected packet first occupies src's local-input VC.
      int holder = vc_node(r, topo->local_port_of(src), topo->inject_class(src, dst));
      while (true) {
        const RouteEntry entry = topo->route(r, dst);
        if (is_local(entry.dir())) break;  // ejection consumes; no dependency
        const NodeId next = topo->neighbor(r, entry.dir());
        const int downstream = vc_node(next, opposite(entry.dir()), entry.vc_class);
        edges[static_cast<std::size_t>(holder)].push_back(downstream);
        holder = downstream;
        r = next;
      }
    }
  }

  // Iterative three-color DFS cycle detection.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(static_cast<std::size_t>(num_nodes), kWhite);
  for (int start = 0; start < num_nodes; ++start) {
    if (color[static_cast<std::size_t>(start)] != kWhite) continue;
    std::vector<std::pair<int, std::size_t>> stack{{start, 0}};
    color[static_cast<std::size_t>(start)] = kGray;
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto& out = edges[static_cast<std::size_t>(node)];
      if (idx == out.size()) {
        color[static_cast<std::size_t>(node)] = kBlack;
        stack.pop_back();
        continue;
      }
      const int next = out[idx++];
      ASSERT_NE(color[static_cast<std::size_t>(next)], kGray)
          << "channel-dependency cycle through VC node " << next;
      if (color[static_cast<std::size_t>(next)] == kWhite) {
        color[static_cast<std::size_t>(next)] = kGray;
        stack.emplace_back(next, 0);
      }
    }
  }
}

// Wiring sanity: every wired cardinal port is symmetric — the neighbor's
// opposite port faces back — even on the width-2 torus, where East and West
// reach the *same* neighbor over two distinct physical channels.
TEST_P(TopologyTest, NeighborMapIsSymmetric) {
  const NocConfig config = config_of(GetParam());
  const auto topo = Topology::create(config);
  for (NodeId r = 0; r < topo->num_routers(); ++r) {
    for (int d = 0; d < 4; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const NodeId nb = topo->neighbor(r, dir);
      if (nb == kInvalidNode) continue;
      EXPECT_EQ(topo->neighbor(nb, opposite(dir)), r)
          << "router " << r << " port " << to_string(dir);
    }
  }
}

// Terminal <-> router mapping round-trips on every topology (identity when
// concentration == 1).
TEST_P(TopologyTest, TerminalRouterMappingRoundTrips) {
  const NocConfig config = config_of(GetParam());
  const auto topo = Topology::create(config);
  for (NodeId t = 0; t < topo->num_terminals(); ++t) {
    const NodeId r = topo->router_of(t);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, topo->num_routers());
    EXPECT_EQ(topo->terminal_of(r, topo->local_slot_of(t)), t);
    EXPECT_EQ(local_slot(topo->local_port_of(t)), topo->local_slot_of(t));
  }
}

INSTANTIATE_TEST_SUITE_P(SizeGrid, TopologyTest, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return PrintToString(info.param); });

// The mesh table is a *cache* of route_compute(): byte-for-byte agreement
// with the legacy arithmetic on every (router, dst) pair is what keeps all
// pre-topology golden results bit-identical.
TEST(TopologyMeshTest, MeshTableMatchesArithmetic) {
  for (const auto routing : {RoutingAlgo::kXY, RoutingAlgo::kYX}) {
    for (const auto& [w, h] : {std::pair{2, 2}, {4, 4}, {3, 5}, {1, 6}}) {
      NocConfig config;
      config.width = w;
      config.height = h;
      config.routing = routing;
      const auto topo = Topology::create(config);
      ASSERT_EQ(topo->num_vc_classes(), 1);
      for (NodeId r = 0; r < config.nodes(); ++r) {
        for (int d = 0; d < 4; ++d)
          EXPECT_EQ(topo->neighbor(r, static_cast<Dir>(d)),
                    neighbor_of(r, static_cast<Dir>(d), w, h));
        for (NodeId t = 0; t < config.nodes(); ++t) {
          const RouteEntry entry = topo->route(r, t);
          EXPECT_EQ(entry.dir(), route_compute(r, t, config));
          EXPECT_EQ(entry.vc_class, 0);
          EXPECT_EQ(topo->inject_class(r, t), 0);
        }
      }
    }
  }
}

// The downstream class stored in a route entry refers to the *incoming*
// link's dimension (Dally-Seitz). Wherever the downstream router keeps
// traveling in that same dimension, it must agree with the class the
// downstream router computes for its own next hop — the consistency that
// lets a walk's classes be monotone within a dimension.
TEST(TopologyClassTest, RouteEntryClassMatchesDownstreamWithinADimension) {
  const auto x_dim = [](Dir d) { return d == Dir::East || d == Dir::West; };
  for (const char* name : {"torus", "ring"}) {
    NocConfig config;
    config.width = 4;
    config.height = 4;
    config.topology = parse_topology_kind(name);
    config.num_vcs = 2;
    const auto topo = Topology::create(config);
    for (NodeId r = 0; r < topo->num_routers(); ++r) {
      for (NodeId t = 0; t < topo->num_terminals(); ++t) {
        const RouteEntry entry = topo->route(r, t);
        if (is_local(entry.dir())) continue;
        const NodeId next = topo->neighbor(r, entry.dir());
        const RouteEntry downstream = topo->route(next, t);
        if (is_local(downstream.dir()) || x_dim(downstream.dir()) != x_dim(entry.dir()))
          continue;  // turn or ejection: the class dimension changes
        EXPECT_EQ(entry.vc_class, topo->inject_class(next, t))
            << name << " r" << r << " -> t" << t;
      }
    }
  }
}

// --- configuration validation -----------------------------------------------

TEST(TopologyConfigTest, ParseRejectsUnknownNames) {
  EXPECT_THROW(parse_topology_kind("hypercube"), std::invalid_argument);
  EXPECT_EQ(parse_topology_kind("mesh"), TopologyKind::kMesh2D);
  EXPECT_EQ(to_string(TopologyKind::kConcentratedMesh), "cmesh");
}

TEST(TopologyConfigTest, ValidateRejectsImpossibleCombinations) {
  NocConfig torus;
  torus.width = 4;
  torus.height = 4;
  torus.topology = TopologyKind::kTorus2D;
  torus.num_vcs = 1;  // dateline classes need two
  EXPECT_THROW(torus.validate(), std::invalid_argument);
  torus.num_vcs = 2;
  EXPECT_NO_THROW(torus.validate());
  torus.width = 1;  // wrap link would be a self-loop
  EXPECT_THROW(torus.validate(), std::invalid_argument);

  NocConfig cmesh;
  cmesh.width = 4;
  cmesh.height = 4;
  cmesh.topology = TopologyKind::kConcentratedMesh;
  cmesh.concentration = 3;  // does not divide the row
  EXPECT_THROW(cmesh.validate(), std::invalid_argument);
  cmesh.concentration = 2;
  EXPECT_NO_THROW(cmesh.validate());

  NocConfig mesh;
  mesh.width = 4;
  mesh.height = 4;
  mesh.concentration = 2;  // concentration is cmesh-only
  EXPECT_THROW(mesh.validate(), std::invalid_argument);
}

TEST(TopologyConfigTest, ScenarioPropertiesLearnTopology) {
  std::map<std::string, std::string> props{{"mesh_width", "4"},
                                           {"mesh_height", "4"},
                                           {"topology", "torus"},
                                           {"num_vcs", "2"}};
  const sim::Scenario s = sim::scenario_from_properties(props);
  EXPECT_EQ(s.topology, "torus");
  EXPECT_NE(s.describe().find("2D-torus"), std::string::npos);

  props["num_vcs"] = "1";
  EXPECT_THROW(sim::scenario_from_properties(props), std::invalid_argument);

  props["num_vcs"] = "2";
  props["topology"] = "hypercube";
  EXPECT_THROW(sim::scenario_from_properties(props), std::invalid_argument);

  props["topology"] = "cmesh";
  props["concentration"] = "2";
  const sim::Scenario cm = sim::scenario_from_properties(props);
  EXPECT_EQ(cm.concentration, 2);
  props["concentration"] = "3";
  EXPECT_THROW(sim::scenario_from_properties(props), std::invalid_argument);
}

// Seeds stay byte-identical on the mesh and diverge per topology, so each
// topology samples its own silicon while golden mesh results never move.
TEST(TopologyConfigTest, SeedsTagNonMeshTopologiesOnly) {
  sim::Scenario mesh = sim::Scenario::synthetic(4, 2, 0.1);
  sim::Scenario torus = mesh;
  torus.topology = "torus";
  sim::Scenario ring = mesh;
  ring.topology = "ring";
  EXPECT_NE(mesh.pv_seed(), torus.pv_seed());
  EXPECT_NE(torus.pv_seed(), ring.pv_seed());
  EXPECT_NE(mesh.traffic_seed(), torus.traffic_seed());
}

}  // namespace
}  // namespace nbtinoc::noc
