package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// hypercube-3         8 nodes, MF bits used:  3/16
	// hypercube-10     1024 nodes, MF bits used: 10/16
	// hypercube-16    65536 nodes, MF bits used: 16/16
	// hypercube-17: rejected as Table 3 predicts (marking: DDPM on hypercube-17: marking: hypercube dimension 17 outside [1,16])
	//
	// cluster hypercube-10: degree 10, diameter 10
	//
	// fully-adaptive with misrouting: 5000/5000 packets identified correctly (100.00%)
	// random 101-hop walk from 819 ended at 916; MF identifies 819 (ok=true)
}
