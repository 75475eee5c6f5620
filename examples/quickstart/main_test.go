package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// cluster mesh-8x8: 64 nodes, diameter 14
	// zombie at node 10 (1,2) floods victim 63 (7,7) with 1333 spoofed SYNs
	// detected: DDoS alarm at tick 2250 (attack started at 2000)
	// identified sources (>50 packets attributed): [10]
	//   node 10 (1,2) — every one of its packets pointed back to it,
	//   regardless of the spoofed header addresses
	// after blocking: 0 packets accepted from the renewed flood window, 666 dropped
}
