package core

// obsStallsGolden pins each golden cell's non-zero per-opcode issue-stall
// totals under observability; generated by OBS_STALLS_GOLDEN_PRINT=1 (see
// TestObsNeverChangesStats). Do not regenerate as part of performance work.
var obsStallsGolden = map[string]string{
	"compress/out-of-order/off/N":          "add=85603 addi=2 andi=113644 slli=7565 ld=9306 bne=15197",
	"compress/out-of-order/trap-branch/S1": "add=77330 addi=2 andi=89399 slli=10565 ld=11340 bne=16400",
	"compress/out-of-order/condcode/CC1":   "add=65824 addi=2 andi=69715 slli=10814 ld=11177 bne=15967 bmiss=45102",
	"compress/in-order/off/N":              "add=7859 addi=409551 slli=146454 ld=203425 st=81357",
	"compress/in-order/trap-branch/S1":     "add=4857 addi=85923 slli=31749 ld=47345 st=41892",
	"compress/in-order/condcode/CC1":       "add=15149 addi=121618 slli=54440 ld=53125 st=40898",
	"espresso/out-of-order/off/N":          "and=42996 xor=18369 addi=73 ld=18305 st=18432 bne=136",
	"espresso/out-of-order/trap-branch/S1": "and=41641 xor=18432 addi=137 ld=18368 st=18432 bne=136",
	"espresso/out-of-order/condcode/CC1":   "and=4790 xor=18432 addi=137 st=18432 bne=136 bmiss=92223",
	"espresso/in-order/off/N":              "addi=458220 ld=55151 bne=36864",
	"espresso/in-order/trap-branch/S1":     "addi=438541 ld=54897 bne=36800",
	"espresso/in-order/condcode/CC1":       "addi=659432 ld=73266 bne=73536",
	"tomcatv/out-of-order/off/N":           "addi=6 fadd=346131 fmul=24576 fld=12289 fst=61440 bne=6",
	"tomcatv/out-of-order/trap-branch/S1":  "addi=6 fadd=198651 fmul=65536 fld=1 fst=92160 bne=6",
	"tomcatv/out-of-order/condcode/CC1":    "addi=6 fadd=174075 fmul=28672 fld=1 fst=90112 bne=2054 bmiss=122892",
	"tomcatv/in-order/off/N":               "addi=3655709 fld=147441",
	"tomcatv/in-order/trap-branch/S1":      "addi=49160 fld=36864",
	"tomcatv/in-order/condcode/CC1":        "addi=49161 fld=73728",
}
