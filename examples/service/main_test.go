package main

// Example pins what the example prints.
func Example() {
	main()
	// Output:
	// SYN flood against a 16-entry half-open table on mesh-6x6; 40 legit handshakes attempted
	// clean     completion 100%  (established 33/33)  refused     0  blocked     0  backscatter   0
	// attack    completion  67%  (established 22/33)  refused  1955  blocked     0  backscatter  51
	//           victim's DDPM identifier points at: [3] (true zombie: node 3)
	// blocked   completion 100%  (established 33/33)  refused     0  blocked  2000  backscatter   0
	//
	// the blocklist uses the marking field, so the spoofed headers — and the
	// backscatter their SYN-ACKs caused — are gone the moment the source is blocked
}
