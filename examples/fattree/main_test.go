package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// fattree-4ary-3tree: 64 leaves, 48 switches, stamp uses 8/16 MF bits
	//
	// attacker leaf 13 (digits [0 3 1]) -> victim leaf 50 (digits [3 0 2]), NCA level 2
	//   up   level 0 switch   3, entered via port 1
	//   up   level 1 switch   2, entered via port 3
	//   up   level 2 switch   6, entered via port 0
	//   down level 1 switch  14, entered via port 3
	//   down level 0 switch  12, entered via port 0
	// victim decodes MF 0000000011001101 -> source leaf 13 (ok=true)
	//
	// bulk: 10000/10000 flows identified exactly under adaptive up-routing
	//
	// MF scalability (the Table 3 analog for fat trees):
	//   2-ary: up to n=12, 4096 leaves
	//   4-ary: up to n=6, 4096 leaves
	//   8-ary: up to n=4, 4096 leaves
}
