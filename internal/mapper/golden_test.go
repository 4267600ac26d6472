package mapper_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"qproc/internal/arch"
	"qproc/internal/circuit"
	"qproc/internal/core"
	"qproc/internal/gen"
	"qproc/internal/mapper"
)

// goldenMap is one pinned routing outcome.
type goldenMap struct {
	GateCount, Swaps int
	Initial, Final   []int
	// Sum is the SHA-256 of Mapped's gate strings, one per line.
	Sum string
}

// goldenPrograms are the mapping-heavy programs of the sweep-map benchmark
// workload.
var goldenPrograms = []string{"qft_16", "rd84_142", "misex1_241", "square_root_7", "cm152a_212", "UCCSD_ansatz_8"}

// goldenMaps pins every routing decision: keys are
// "<program>/<architecture>/it=<Iterations>".
var goldenMaps = map[string]goldenMap{
	"qft_16/ibm-16q-2x8-2bus/it=0":         {GateCount: 860, Swaps: 76, Initial: []int{1, 0, 2, 9, 8, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15}, Final: []int{15, 7, 14, 6, 13, 5, 12, 4, 3, 11, 2, 0, 10, 8, 1, 9}, Sum: "f2e76e8a0181f6aa43460d5acbfa0ce0972eb05088879c324827a496a47d3ea7"},
	"qft_16/ibm-16q-2x8-2bus/it=3":         {GateCount: 830, Swaps: 66, Initial: []int{14, 6, 15, 13, 7, 5, 4, 11, 12, 3, 2, 10, 1, 9, 8, 0}, Final: []int{8, 9, 0, 1, 10, 11, 2, 3, 12, 4, 5, 13, 7, 15, 6, 14}, Sum: "b4558bc91ea6f61d835d2efbcbc5e19eea4de7b6f22bb9d6928a60bbd5d67c22"},
	"qft_16/ibm-16q-2x8-4bus/it=0":         {GateCount: 791, Swaps: 53, Initial: []int{1, 0, 8, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15}, Final: []int{15, 7, 6, 14, 5, 13, 4, 12, 3, 8, 0, 11, 10, 9, 2, 1}, Sum: "be6dc2d36ab6266665f31f6f62ac24958c3524f2606937f2751b98a612fdb646"},
	"qft_16/ibm-16q-2x8-4bus/it=3":         {GateCount: 791, Swaps: 53, Initial: []int{5, 6, 4, 14, 15, 7, 12, 3, 13, 1, 11, 10, 2, 8, 0, 9}, Final: []int{0, 8, 1, 9, 2, 10, 3, 11, 12, 4, 15, 13, 7, 5, 14, 6}, Sum: "d8d876f539db3e72ecd7bdac3e9fe33aa67775f9c982f2305184fb915362bc5b"},
	"qft_16/ibm-20q-4x5-2bus/it=0":         {GateCount: 908, Swaps: 92, Initial: []int{6, 1, 0, 5, 2, 7, 11, 10, 12, 8, 3, 13, 16, 17, 15, 18}, Final: []int{13, 15, 18, 16, 17, 3, 2, 8, 12, 1, 0, 10, 11, 7, 5, 6}, Sum: "923d0c04ba7a3b15473c0a77a18384b976babb790d3b3bc914e98c7d99d30ed7"},
	"qft_16/ibm-20q-4x5-2bus/it=3":         {GateCount: 848, Swaps: 72, Initial: []int{7, 6, 2, 8, 5, 1, 0, 10, 11, 3, 15, 16, 17, 12, 13, 18}, Final: []int{18, 13, 12, 17, 15, 10, 16, 0, 5, 11, 1, 3, 8, 6, 2, 7}, Sum: "df0f4477fa570e00a7070674d4804fdf5ce1a98275210a3404e602a9ac424ba6"},
	"qft_16/ibm-20q-4x5-4bus/it=0":         {GateCount: 812, Swaps: 60, Initial: []int{6, 0, 1, 5, 2, 7, 11, 12, 10, 3, 8, 13, 16, 17, 15, 18}, Final: []int{3, 13, 10, 16, 18, 15, 0, 5, 17, 1, 8, 2, 11, 12, 6, 7}, Sum: "f7b46ba3b7304f7022af0c200eb583983cb143b88f6796ab226c9c54cb5ff338"},
	"qft_16/ibm-20q-4x5-4bus/it=3":         {GateCount: 800, Swaps: 56, Initial: []int{11, 16, 12, 10, 15, 17, 6, 13, 5, 7, 18, 1, 8, 3, 0, 2}, Final: []int{5, 0, 8, 13, 1, 18, 2, 3, 12, 15, 17, 10, 6, 7, 16, 11}, Sum: "df88dae1f91de381f5ca4d665830388486ed51ad97c24de1b95a005bbdcbf0a6"},
	"qft_16/eff-full-0bus/it=0":            {GateCount: 890, Swaps: 86, Initial: []int{10, 9, 11, 2, 4, 7, 12, 13, 6, 3, 1, 0, 5, 8, 15, 14}, Final: []int{15, 14, 8, 12, 1, 0, 13, 10, 6, 7, 5, 11, 9, 3, 2, 4}, Sum: "2f8135da128769924fb12e8e0a9dd82ba170d0fd2c151e8d838c8614fcd77b75"},
	"qft_16/eff-full-0bus/it=3":            {GateCount: 881, Swaps: 83, Initial: []int{2, 11, 9, 4, 3, 5, 6, 0, 1, 7, 13, 10, 12, 15, 8, 14}, Final: []int{14, 13, 15, 12, 11, 0, 8, 5, 6, 10, 1, 7, 3, 2, 9, 4}, Sum: "58e0b35988eb51a1278c277e3ece1ca54cd6a43332631bec670540224fe019f2"},
	"rd84_142/ibm-16q-2x8-2bus/it=0":       {GateCount: 2393, Swaps: 270, Initial: []int{1, 2, 10, 3, 12, 4, 13, 5, 9, 0, 8, 11, 6, 7, 14}, Final: []int{4, 11, 0, 8, 9, 10, 3, 13, 12, 5, 2, 1, 6, 7, 14}, Sum: "50521db5fc203d5e407bcd1b3864605deb28e5458d35602683c5a48be2b5da53"},
	"rd84_142/ibm-16q-2x8-2bus/it=3":       {GateCount: 2495, Swaps: 304, Initial: []int{1, 3, 4, 9, 8, 11, 0, 5, 10, 2, 13, 12, 6, 7, 14}, Final: []int{3, 13, 0, 9, 8, 1, 4, 10, 2, 11, 12, 5, 6, 7, 14}, Sum: "461dff2f121d2ff2afe7b63d2af78c98dbcab46f0c12a37145b0d92b58355685"},
	"rd84_142/ibm-16q-2x8-4bus/it=0":       {GateCount: 2150, Swaps: 189, Initial: []int{1, 8, 10, 11, 4, 12, 5, 13, 9, 0, 2, 3, 6, 7, 14}, Final: []int{3, 10, 8, 1, 0, 9, 11, 4, 5, 12, 2, 13, 6, 7, 14}, Sum: "34f0438438a9150ebbcae2ffc6d94ea3fb4d3b230070714cb66eaeff69f714d2"},
	"rd84_142/ibm-16q-2x8-4bus/it=3":       {GateCount: 2087, Swaps: 168, Initial: []int{10, 11, 2, 8, 0, 4, 13, 5, 12, 3, 9, 1, 6, 7, 14}, Final: []int{9, 1, 5, 12, 13, 0, 8, 10, 11, 2, 3, 4, 6, 7, 14}, Sum: "6979e40b78f0ef358f43ff02dceb1ce113525da92a2c16b9ddb96de7f6081ba5"},
	"rd84_142/ibm-20q-4x5-2bus/it=0":       {GateCount: 2501, Swaps: 306, Initial: []int{2, 4, 7, 6, 5, 10, 11, 0, 1, 3, 9, 8, 12, 13, 14}, Final: []int{4, 7, 0, 6, 10, 5, 11, 2, 1, 3, 9, 8, 12, 13, 14}, Sum: "a951c23204b4ae780eb0b5a7b8d9650029ce93e43afc6b8830eb27c28f0d8c8e"},
	"rd84_142/ibm-20q-4x5-2bus/it=3":       {GateCount: 2399, Swaps: 272, Initial: []int{5, 6, 7, 10, 11, 12, 13, 9, 1, 8, 3, 2, 4, 0, 14}, Final: []int{6, 11, 2, 1, 10, 7, 9, 13, 12, 8, 5, 0, 4, 3, 14}, Sum: "e556576e5ddd47334214098a7bc8760490f85d26b700ec782d80e1a30c6d403c"},
	"rd84_142/ibm-20q-4x5-4bus/it=0":       {GateCount: 2093, Swaps: 170, Initial: []int{6, 1, 7, 10, 11, 12, 15, 16, 5, 0, 2, 3, 4, 8, 9}, Final: []int{5, 2, 7, 15, 0, 12, 6, 10, 16, 11, 1, 3, 4, 8, 9}, Sum: "3695534e0b53c9883dee0ded46a1542c12dd5f106e18f6720f79f95d94414b84"},
	"rd84_142/ibm-20q-4x5-4bus/it=3":       {GateCount: 1940, Swaps: 119, Initial: []int{11, 6, 7, 0, 5, 10, 15, 16, 12, 1, 3, 2, 4, 8, 9}, Final: []int{6, 2, 1, 0, 10, 5, 12, 16, 15, 11, 7, 3, 4, 8, 9}, Sum: "bf4bb922ad47604b0db7524f292a614d32af4442b7e9d0400b428afb8d825c27"},
	"rd84_142/eff-full-0bus/it=0":          {GateCount: 2354, Swaps: 257, Initial: []int{0, 5, 10, 3, 4, 6, 7, 12, 8, 1, 9, 2, 11, 13, 14}, Final: []int{0, 8, 10, 5, 4, 6, 1, 9, 12, 2, 7, 3, 11, 13, 14}, Sum: "9b14c4e7504493743ca1e8e294947198fb27dbf1239f168cc9416549e9e6b3a6"},
	"rd84_142/eff-full-0bus/it=3":          {GateCount: 2351, Swaps: 256, Initial: []int{7, 2, 12, 0, 10, 1, 11, 14, 8, 9, 13, 6, 3, 5, 4}, Final: []int{11, 6, 0, 8, 13, 1, 10, 12, 14, 9, 2, 7, 3, 5, 4}, Sum: "bc1badd27a7c19836cb21b6473443249e73de1b40e1aee44345ee6ad4904c813"},
	"misex1_241/ibm-16q-2x8-2bus/it=0":     {GateCount: 3126, Swaps: 375, Initial: []int{1, 0, 8, 2, 10, 9, 11, 3, 7, 6, 14, 13, 12, 5, 4}, Final: []int{12, 5, 2, 11, 1, 4, 0, 10, 8, 14, 7, 13, 6, 9, 3}, Sum: "bbfd1841e6e8533a79b5f0ea074e7498b640d98c5efcfd0b5299bebc3de4ee12"},
	"misex1_241/ibm-16q-2x8-2bus/it=3":     {GateCount: 3108, Swaps: 369, Initial: []int{10, 12, 9, 2, 13, 5, 4, 14, 11, 3, 6, 0, 15, 7, 1}, Final: []int{4, 11, 10, 5, 9, 3, 12, 6, 14, 1, 15, 7, 0, 13, 2}, Sum: "0c0321a42c8ce2538e3504abb6ff6385ff5b9ce3f8a3cb427ff5f0a0c0e8e506"},
	"misex1_241/ibm-16q-2x8-4bus/it=0":     {GateCount: 2847, Swaps: 282, Initial: []int{1, 0, 2, 8, 10, 9, 11, 3, 7, 14, 6, 13, 12, 5, 4}, Final: []int{3, 5, 10, 11, 9, 4, 6, 2, 7, 14, 13, 0, 8, 1, 12}, Sum: "97aefff68527fe664c76d1382a66b8dcec1273c9239a1907f4a9b97c750d8ab8"},
	"misex1_241/ibm-16q-2x8-4bus/it=3":     {GateCount: 2790, Swaps: 263, Initial: []int{4, 11, 10, 13, 5, 14, 6, 3, 12, 2, 15, 9, 1, 0, 7}, Final: []int{12, 7, 14, 11, 4, 13, 6, 3, 0, 9, 15, 1, 10, 2, 5}, Sum: "75351880500447f20da55d77a970205d8bdd9b5f0480d133c3635c852e1c636b"},
	"misex1_241/ibm-20q-4x5-2bus/it=0":     {GateCount: 3018, Swaps: 339, Initial: []int{6, 1, 0, 5, 2, 7, 10, 11, 17, 15, 13, 16, 8, 3, 12}, Final: []int{6, 0, 12, 7, 16, 11, 5, 2, 3, 13, 1, 15, 8, 17, 10}, Sum: "2e3040329f74f02a240de3ff8ac77e0cce98c0baa792c0f9ca7fc6cca8cccbf3"},
	"misex1_241/ibm-20q-4x5-2bus/it=3":     {GateCount: 2979, Swaps: 326, Initial: []int{7, 9, 5, 6, 13, 1, 2, 4, 8, 11, 12, 0, 3, 10, 14}, Final: []int{13, 11, 6, 8, 9, 14, 3, 7, 4, 0, 1, 10, 2, 5, 12}, Sum: "52bc1290e0906e258ac6bda3493fa7da0e9152813fceaaa9aae518a3789932ce"},
	"misex1_241/ibm-20q-4x5-4bus/it=0":     {GateCount: 2523, Swaps: 174, Initial: []int{6, 0, 7, 1, 11, 5, 2, 12, 16, 17, 15, 8, 10, 13, 3}, Final: []int{6, 10, 7, 12, 11, 1, 13, 17, 2, 16, 8, 15, 3, 0, 5}, Sum: "2943105b670c334de65b4ac79cb56a05664e899a37564c0ce8dbe554bcbdf492"},
	"misex1_241/ibm-20q-4x5-4bus/it=3":     {GateCount: 2553, Swaps: 184, Initial: []int{1, 7, 12, 11, 0, 8, 3, 2, 6, 15, 16, 10, 13, 17, 5}, Final: []int{11, 6, 17, 15, 13, 12, 8, 10, 3, 2, 5, 1, 0, 16, 7}, Sum: "190908520dfb87bfe570ca36383365111f4083bc7323f853089fdcd5b3e1a4db"},
	"misex1_241/eff-full-0bus/it=0":        {GateCount: 2997, Swaps: 332, Initial: []int{6, 11, 2, 9, 1, 4, 3, 5, 12, 8, 14, 0, 7, 10, 13}, Final: []int{0, 9, 3, 7, 14, 1, 4, 13, 12, 11, 8, 10, 5, 6, 2}, Sum: "794575fb6b683089af476e085d42197ef1c2ecc69328f33bd4b59f2db09f76bb"},
	"misex1_241/eff-full-0bus/it=3":        {GateCount: 2937, Swaps: 312, Initial: []int{7, 3, 6, 1, 13, 4, 14, 8, 0, 2, 9, 10, 11, 5, 12}, Final: []int{5, 6, 0, 4, 3, 1, 12, 11, 8, 7, 14, 10, 9, 13, 2}, Sum: "5d0be9982dcaeaf746c1dcf3acf2c98bf5d838ca4dcb98aab1e240903c6e1d7a"},
	"square_root_7/ibm-16q-2x8-2bus/it=0":  {GateCount: 5791, Swaps: 672, Initial: []int{1, 0, 8, 10, 6, 13, 12, 11, 9, 3, 4, 5, 2, 14, 7}, Final: []int{3, 10, 12, 11, 6, 0, 8, 9, 1, 2, 5, 13, 4, 14, 7}, Sum: "f1e3c2863c8673a342c392b61f1593ce99ed2efa9c00e58167ed27e18aac6401"},
	"square_root_7/ibm-16q-2x8-2bus/it=3":  {GateCount: 5779, Swaps: 668, Initial: []int{8, 1, 2, 11, 0, 3, 9, 10, 4, 15, 12, 13, 5, 6, 14}, Final: []int{10, 5, 4, 3, 9, 0, 8, 1, 2, 11, 13, 14, 12, 6, 15}, Sum: "eb18235494aa542b14251e2d0732d11ebf8fb82dcd7ac66bd18f31620aa7e846"},
	"square_root_7/ibm-16q-2x8-4bus/it=0":  {GateCount: 5302, Swaps: 509, Initial: []int{1, 0, 8, 10, 6, 13, 12, 11, 9, 3, 4, 5, 2, 14, 7}, Final: []int{12, 1, 11, 2, 14, 8, 13, 5, 0, 9, 10, 4, 3, 7, 6}, Sum: "f54e025c137f367eed8010d1b772c3b6acf9be2f00c6120314925f29b09f6919"},
	"square_root_7/ibm-16q-2x8-4bus/it=3":  {GateCount: 5269, Swaps: 498, Initial: []int{3, 2, 1, 10, 12, 11, 0, 9, 7, 15, 4, 13, 5, 6, 14}, Final: []int{13, 5, 11, 10, 6, 14, 0, 1, 9, 2, 4, 3, 12, 7, 15}, Sum: "1d2a0cd22268c1b2f26d98280bba80df3e7c29f7cda73a0b825bbd9562abc705"},
	"square_root_7/ibm-20q-4x5-2bus/it=0":  {GateCount: 5725, Swaps: 650, Initial: []int{6, 1, 0, 2, 16, 10, 3, 8, 5, 11, 12, 13, 7, 15, 17}, Final: []int{8, 10, 6, 11, 12, 15, 5, 3, 13, 0, 2, 1, 7, 16, 17}, Sum: "f1b8e642ae71cc47d2550aa262e415c81d4f6f1e3538e96690d824faa3b86746"},
	"square_root_7/ibm-20q-4x5-2bus/it=3":  {GateCount: 5689, Swaps: 638, Initial: []int{9, 13, 8, 7, 14, 4, 12, 3, 0, 11, 10, 5, 2, 1, 6}, Final: []int{14, 5, 11, 6, 10, 4, 9, 3, 2, 8, 7, 13, 12, 0, 1}, Sum: "12650cb88258af83249d8a733236346702f9d2e20479d0718ef9c3c3525974e2"},
	"square_root_7/ibm-20q-4x5-4bus/it=0":  {GateCount: 4807, Swaps: 344, Initial: []int{6, 0, 1, 2, 16, 8, 3, 12, 5, 11, 10, 15, 7, 13, 17}, Final: []int{15, 1, 6, 12, 8, 0, 5, 10, 16, 11, 2, 3, 7, 17, 13}, Sum: "e21448b0921b50cca82e70cb34c612b5a122ae99bca1cc5b3e89eb849237bd4f"},
	"square_root_7/ibm-20q-4x5-4bus/it=3":  {GateCount: 4717, Swaps: 314, Initial: []int{2, 1, 6, 12, 0, 5, 10, 13, 4, 9, 7, 8, 11, 3, 14}, Final: []int{1, 0, 6, 11, 4, 10, 13, 12, 5, 2, 8, 3, 7, 9, 14}, Sum: "9d4a3e7ad9b5643b1470d3b96b04d3aed144505c23416951cf39e58db80b2256"},
	"square_root_7/eff-full-0bus/it=0":     {GateCount: 5791, Swaps: 672, Initial: []int{11, 10, 2, 3, 0, 12, 13, 9, 1, 6, 14, 7, 8, 4, 5}, Final: []int{9, 10, 1, 2, 4, 5, 6, 7, 3, 13, 12, 0, 8, 14, 11}, Sum: "1d13d31aff19f24743434eb522039cccea08a49f2bd1204ae38de5f7821664d1"},
	"square_root_7/eff-full-0bus/it=3":     {GateCount: 5611, Swaps: 612, Initial: []int{11, 3, 12, 8, 2, 5, 13, 4, 6, 1, 14, 9, 10, 0, 7}, Final: []int{7, 3, 2, 10, 4, 5, 13, 6, 8, 12, 0, 9, 1, 14, 11}, Sum: "5200b863581f64d81a218034092d8fdce220168a0c25e1651fd54d9e128985ca"},
	"cm152a_212/ibm-16q-2x8-2bus/it=0":     {GateCount: 1383, Swaps: 129, Initial: []int{1, 0, 10, 4, 11, 5, 12, 6, 9, 8, 2, 3}, Final: []int{10, 1, 0, 6, 12, 5, 11, 3, 9, 8, 2, 4}, Sum: "c36f4b4faf20884bddfb84705f5442fdba9779c1bf579af19c1b38c009e92a0c"},
	"cm152a_212/ibm-16q-2x8-2bus/it=3":     {GateCount: 1425, Swaps: 143, Initial: []int{9, 1, 2, 8, 12, 11, 5, 6, 4, 3, 0, 10}, Final: []int{2, 0, 8, 9, 12, 3, 6, 4, 10, 11, 1, 5}, Sum: "d83fef28af618a19bfdb5f2e54f8db6cb603caba454fa093b7d0ccf606a40c48"},
	"cm152a_212/ibm-16q-2x8-4bus/it=0":     {GateCount: 1335, Swaps: 113, Initial: []int{1, 0, 3, 11, 4, 12, 5, 13, 9, 10, 8, 2}, Final: []int{10, 0, 5, 8, 1, 4, 13, 11, 3, 2, 9, 12}, Sum: "d646bba6ed5f4b9f4cd81e3f79bb03a032d55c64c5c65775d6c9235a87844d02"},
	"cm152a_212/ibm-16q-2x8-4bus/it=3":     {GateCount: 1335, Swaps: 113, Initial: []int{3, 12, 11, 6, 7, 13, 14, 1, 5, 4, 10, 2}, Final: []int{4, 2, 10, 1, 7, 14, 13, 11, 5, 6, 3, 12}, Sum: "c1122197b3ff2aeb4ad3b3bf8ecc1614010e554bb16b80627b04fca8c88a6709"},
	"cm152a_212/ibm-20q-4x5-2bus/it=0":     {GateCount: 1449, Swaps: 151, Initial: []int{6, 1, 3, 4, 8, 11, 12, 9, 5, 7, 0, 2}, Final: []int{6, 2, 0, 4, 9, 3, 12, 8, 5, 10, 1, 7}, Sum: "fd164cf6409a791582360f0111e49e607befd2a7e7d8b996aebb3c3c10ea3f0d"},
	"cm152a_212/ibm-20q-4x5-2bus/it=3":     {GateCount: 1437, Swaps: 147, Initial: []int{2, 7, 8, 4, 9, 1, 11, 0, 5, 6, 13, 3}, Final: []int{11, 7, 4, 0, 9, 3, 8, 2, 6, 5, 12, 1}, Sum: "bb3f6279a1dcb0c12599b9516a41c77fb5d8ac7b95aaa68a24b3b7377e6d9f5e"},
	"cm152a_212/ibm-20q-4x5-4bus/it=0":     {GateCount: 1185, Swaps: 63, Initial: []int{6, 0, 2, 11, 12, 3, 8, 13, 5, 10, 1, 7}, Final: []int{1, 6, 2, 11, 13, 3, 8, 12, 5, 10, 0, 7}, Sum: "1332ed4b24126b6fd9f5fff90625d1d8b1084c840d9210ef472e7f0156be49af"},
	"cm152a_212/ibm-20q-4x5-4bus/it=3":     {GateCount: 1263, Swaps: 89, Initial: []int{1, 7, 12, 8, 0, 5, 2, 10, 4, 3, 11, 6}, Final: []int{7, 6, 2, 8, 12, 10, 1, 5, 3, 4, 11, 0}, Sum: "952b01849c3512e9e47f8b1a8e5dcfe36dfcda5d9f2e5a21f06a85c2568eacf0"},
	"cm152a_212/eff-full-0bus/it=0":        {GateCount: 1431, Swaps: 145, Initial: []int{1, 0, 11, 2, 5, 6, 4, 7, 9, 8, 3, 10}, Final: []int{0, 11, 1, 5, 10, 6, 4, 2, 9, 8, 3, 7}, Sum: "17cbabf1b71ec865b669ccf8e8ad6a4084d0bfd64e3b301d0ea0dbd947bfc094"},
	"cm152a_212/eff-full-0bus/it=3":        {GateCount: 1533, Swaps: 179, Initial: []int{3, 1, 2, 5, 8, 9, 6, 7, 10, 4, 0, 11}, Final: []int{4, 2, 10, 5, 8, 9, 1, 7, 3, 0, 11, 6}, Sum: "b525e7756cf404cf83b7482170c871e50f9b0e04a3d971ee89b7017c8cd21e41"},
	"UCCSD_ansatz_8/ibm-16q-2x8-2bus/it=0": {GateCount: 7475, Swaps: 185, Initial: []int{11, 10, 2, 1, 0, 8, 9, 3}, Final: []int{3, 11, 10, 2, 1, 0, 8, 9}, Sum: "eb43e23418dc8b3dff2535650ede60e67c11627c2bfd5b8ba1fad72767a5d78a"},
	"UCCSD_ansatz_8/ibm-16q-2x8-2bus/it=3": {GateCount: 7385, Swaps: 155, Initial: []int{2, 9, 0, 8, 10, 1, 3, 11}, Final: []int{3, 11, 10, 2, 1, 0, 8, 9}, Sum: "ab902c5e21d0a13a742e5c852b4a299f389f2ab1c38999263669db0b9357d949"},
	"UCCSD_ansatz_8/ibm-16q-2x8-4bus/it=0": {GateCount: 7274, Swaps: 118, Initial: []int{3, 2, 8, 1, 0, 9, 10, 11}, Final: []int{3, 11, 10, 9, 0, 8, 1, 2}, Sum: "f8af989560a3dfd8f87a58aeb6b83562e5819521f795620cef7a9c9acfca1026"},
	"UCCSD_ansatz_8/ibm-16q-2x8-4bus/it=3": {GateCount: 7277, Swaps: 119, Initial: []int{11, 3, 8, 0, 10, 9, 2, 1}, Final: []int{11, 3, 2, 1, 8, 0, 9, 10}, Sum: "dabab63830774ccba5396da94df65cab233329b41cc1f1e05af1ddfb2238ae78"},
	"UCCSD_ansatz_8/ibm-20q-4x5-2bus/it=0": {GateCount: 7379, Swaps: 153, Initial: []int{7, 8, 9, 4, 3, 2, 1, 0}, Final: []int{6, 1, 2, 7, 8, 9, 4, 3}, Sum: "f7d06e9f1389bbc35d48c0d506c3426acfa77bfb44614f6d1f749fe3d412a84e"},
	"UCCSD_ansatz_8/ibm-20q-4x5-2bus/it=3": {GateCount: 7349, Swaps: 143, Initial: []int{3, 1, 7, 9, 2, 4, 8, 6}, Final: []int{6, 1, 2, 3, 4, 9, 8, 7}, Sum: "64ff8cb6a96b17fd2166ace78e9d10581d9f97f674fd4e3f6489757daf2fd724"},
	"UCCSD_ansatz_8/ibm-20q-4x5-4bus/it=0": {GateCount: 7235, Swaps: 105, Initial: []int{7, 2, 1, 6, 0, 5, 10, 11}, Final: []int{0, 11, 10, 5, 6, 1, 2, 7}, Sum: "a316dd3ce558d16b2b9dd88226a8f554fd48af365e91b8c83c7c4c1f95826a49"},
	"UCCSD_ansatz_8/ibm-20q-4x5-4bus/it=3": {GateCount: 7208, Swaps: 96, Initial: []int{11, 0, 10, 1, 6, 7, 5, 2}, Final: []int{2, 1, 0, 5, 10, 11, 6, 7}, Sum: "b2d3d1d43cf1b38a7cf7e594f9c80254d79f5462987dc2d1836b011d519ab097"},
	"UCCSD_ansatz_8/eff-full-0bus/it=0":    {GateCount: 7361, Swaps: 147, Initial: []int{0, 1, 2, 3, 4, 5, 6, 7}, Final: []int{7, 0, 1, 2, 3, 4, 5, 6}, Sum: "c677870c08b4a4bee38023bb0891ddd5facd0e35355696102833b90737ced589"},
	"UCCSD_ansatz_8/eff-full-0bus/it=3":    {GateCount: 7385, Swaps: 155, Initial: []int{2, 6, 0, 7, 5, 1, 3, 4}, Final: []int{3, 4, 5, 2, 1, 0, 7, 6}, Sum: "fb2c00541d3fa842660397a04774caeaf93d615321bd58b4661c962708ac7d0c"},
}

// gateSum hashes the gate strings of c, one per line.
func gateSum(c *circuit.Circuit) string {
	h := sha256.New()
	for _, g := range c.Gates {
		fmt.Fprintln(h, g.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenTargets returns the architectures each program is pinned on: every
// IBM baseline it fits plus its eff-full k=0 design. Routing reads only the
// coupling graph, so the k=0 design is the bus-free base layout (frequency
// allocation does not change it).
func goldenTargets(t *testing.T, c *circuit.Circuit) []*arch.Architecture {
	t.Helper()
	var out []*arch.Architecture
	for _, b := range arch.Baselines() {
		if a := arch.NewBaseline(b); a.NumQubits() >= c.Qubits {
			out = append(out, a)
		}
	}
	base, _, err := core.NewFlow(1).BaseLayout(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	base.Name = "eff-full-0bus"
	return append(out, base)
}

// TestGoldenMaps pins GateCount, Swaps, Initial, Final and the mapped gate
// stream of every (program, architecture, Iterations) case, so routing
// optimisations must keep each decision bit-identical.
func TestGoldenMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("maps six programs onto five architectures twice")
	}
	seen := 0
	for _, name := range goldenPrograms {
		b, err := gen.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := b.Build()
		for _, a := range goldenTargets(t, c) {
			for _, it := range []int{0, 3} {
				key := fmt.Sprintf("%s/%s/it=%d", name, a.Name, it)
				opt := mapper.DefaultOptions()
				opt.Iterations = it
				res, err := mapper.Map(c, a, opt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := goldenMap{res.GateCount, res.Swaps, res.Initial, res.Final, gateSum(res.Mapped)}
				want, ok := goldenMaps[key]
				if !ok {
					t.Errorf("no golden value, record it as\n%q: %#v,", key, got)
					continue
				}
				seen++
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n got %#v\nwant %#v", key, got, want)
				}
			}
		}
	}
	if seen != len(goldenMaps) {
		t.Errorf("checked %d cases, table has %d", seen, len(goldenMaps))
	}
}
