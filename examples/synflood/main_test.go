package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// torus-8x8 SYN flood: 16 zombies, 27984 attack packets, 1612 background packets
	// detection: alarm at tick 3084 (flood began at 3000, latency 84 ticks)
	// identification: 16 sources exceeded 100 attributed packets
	//   node  4 (0,4)    1677 pkts  zombie
	//   node  5 (0,5)    1724 pkts  zombie
	//   node  9 (1,1)    1727 pkts  zombie
	//   node 24 (3,0)    1524 pkts  zombie
	//   node 25 (3,1)    1214 pkts  zombie
	//   node 31 (3,7)    1217 pkts  zombie
	//   node 33 (4,1)    1194 pkts  zombie
	//   node 35 (4,3)    1281 pkts  zombie
	//   node 36 (4,4)    1372 pkts  zombie
	//   node 38 (4,6)    1242 pkts  zombie
	//   node 42 (5,2)    1285 pkts  zombie
	//   node 44 (5,4)    1382 pkts  zombie
	//   node 55 (6,7)    1380 pkts  zombie
	//   node 56 (7,0)    1749 pkts  zombie
	//   node 59 (7,3)    1642 pkts  zombie
	//   node 61 (7,5)    1562 pkts  zombie
	// score: 16/16 zombies identified, 0 false positives
	// note: node 5 was framed by FixedSpoof on every third zombie —
	//       DDPM attribution ignores the forged header and it is NOT in the list
	// ingress-filter baseline: spoofed injection at the source switch -> drop,
	//       but it costs an address lookup per injection in every switch (§6.2 tradeoff)
}
