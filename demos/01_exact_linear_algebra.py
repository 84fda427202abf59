"""Exact linear algebra over GF(2^k): the substrate everything else uses.

Vectors are bit-packed integers, addition is xor for every field degree,
and subspaces are kept in canonical reduced row-echelon form, so equality
of subspaces is equality of tuples.
"""

from lie2 import Matrix, Subspace, gf, nullspace, rref, vector

f2 = gf(1)
f8 = gf(3)

print("== arithmetic in GF(8) =========================================")
a, b = 0b011, 0b101  # 1 + x and 1 + x^2
print(f"a + b      = {a ^ b:03b}   (xor: characteristic 2)")
print(f"a * b      = {f8.mul(a, b):03b}")
print(f"a^(-1)     = {f8.inv(a):03b},  a * a^(-1) = {f8.mul(a, f8.inv(a)):03b}")
print(f"Frobenius  : {[f'{f8.square(x):03b}' for x in f8.elements()]}")

print()
print("== canonical row reduction =====================================")
m = Matrix.from_entries(f2, [[1, 1], [0, 1], [1, 0]])
print("rows (1,1),(0,1),(1,0) reduce to:", rref(m).entries())

print()
print("== kernels =====================================================")
m = Matrix.from_entries(f2, [[1, 1, 0]])
ker = nullspace(m)
print(f"kernel of x0+x1 in GF(2)^3 has dim {ker.dim}:")
for v in ker.vectors():
    print("  ", tuple((v >> i) & 1 for i in range(3)))

print()
print("== the subspace lattice ========================================")
u = Subspace.from_vectors(f2, 3, [vector(f2, (1, 1, 0)), vector(f2, (0, 1, 1))])
v = Subspace.from_vectors(f2, 3, [vector(f2, (1, 0, 1))])
print(f"dim u = {u.dim}, dim v = {v.dim}")
print(f"dim (u+v) = {(u + v).dim}, dim (u^v) = {u.intersect(v).dim}")
print("dimension formula holds:",
      u.dim + v.dim == (u + v).dim + u.intersect(v).dim)
