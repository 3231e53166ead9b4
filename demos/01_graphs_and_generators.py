#!/usr/bin/env python3
"""Tour of the graph layer: metrics, balls, geodesics, and the generators.

The star of the show is the point/line incidence graph of a projective
plane: girth 6 with high regular degree, which is what forces many cops on
some graphs (see demo 02).
"""

from copsrobbers import (
    ball,
    diameter,
    format_edge_list,
    gen_grid,
    gen_petersen,
    gen_projective_incidence,
    girth,
    min_degree,
    shortest_path,
)

g = gen_petersen()
print("Petersen graph:", g)
print("  diameter:", diameter(g))
print("  girth:   ", girth(g))
print("  ball of radius 1 around vertex 0:", list(ball(g, [0], 1)))
print("  ball of radius 2 covers everything:", len(ball(g, [0], 2)) == 10)

grid = gen_grid(4, 3)
print("\n4x3 grid geodesic between opposite corners:", shortest_path(grid, 0, 11))

for q in (2, 3, 5):
    h = gen_projective_incidence(q)
    print(f"\nincidence graph of the projective plane of order {q}:")
    print(f"  {h.n} vertices, {h.edge_count} edges, "
          f"{min_degree(h)}-regular, girth {girth(h)}")

print("\nedge-list serialization of the q=2 incidence graph:")
print(format_edge_list(gen_projective_incidence(2)))
