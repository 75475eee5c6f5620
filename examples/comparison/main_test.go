package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// scenario: attacker (0,0) floods victim (7,7) on mesh-8x8 (14 hops via XY)
	//
	// scheme       routing            packets to identify    verdict
	// ddpm         xy                 1                      exact source, single packet
	// simple-ppm   xy                 500                    exact source
	// dpm          xy                 200                    path signature only: 1 signature(s)/flow, 0 innocent flows collide
	//
	// ddpm         minimal-adaptive   1                      exact source, single packet
	// simple-ppm   minimal-adaptive   4050                   exact source
	// dpm          minimal-adaptive   200                    path signature only: 101 signature(s)/flow, 0 innocent flows collide
	//
	// takeaway: DDPM is the only scheme whose verdict is exact, single-packet,
	// and invariant under adaptive routing — the paper's Table 3 + §5 claim.
}
