// Minimal external consumer, compiled in CI against the *installed* tree
// with nothing but the flags of the installed pigp.pc
// (-I<prefix>/include/pigp, -L<prefix>/lib -lpigp and the archive's own
// dependencies):
//
//   g++ ci/consumer_main.cpp -o consumer \
//       $(PKG_CONFIG_PATH=stage/lib/pkgconfig pkg-config --cflags --libs pigp)
//
// Only the umbrella header is included, so this build breaks the moment
// the public surface grows a dependency that is not reachable (and
// installed) from <pigp.hpp>.

#include <pigp.hpp>

#include <iostream>

int main() {
  using namespace pigp;

  const graph::Graph g = graph::random_geometric_graph(600, 0.06, 3);

  SessionConfig config;
  config.num_parts = 4;
  config.backend = "igpr";
  Session session(config, g);  // initial partition from scratch

  graph::GraphDelta delta;
  for (int i = 0; i < 8; ++i) {
    graph::VertexAddition add;
    add.edges.emplace_back(static_cast<graph::VertexId>(i), 1.0);
    if (i > 0) {
      add.edges.emplace_back(g.num_vertices() + i - 1, 1.0);
    }
    delta.added_vertices.push_back(add);
  }
  const SessionReport report = session.apply(delta);

  std::cout << "consumer ok: backend=" << session.backend_name()
            << " |V|=" << session.graph().num_vertices()
            << " cut=" << report.metrics.cut_total
            << " balanced=" << (report.balance.balanced ? "yes" : "no") << "\n";
  return report.repartitioned && session.graph().num_vertices() == 608 ? 0
                                                                       : 1;
}
