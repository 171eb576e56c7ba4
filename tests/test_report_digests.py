"""Every CLI report stays bit-identical, apart from ``timing_s``.

Ten commands run in-process on seven algebra files: the four bundled kinds
at their default parameters, N(3, 2) and N(4, 3) in a seeded homogeneous
basis, and t of that N(4, 3).  Each run is pinned by its exit code and the
SHA-256 of its report with ``timing_s`` removed.  A change that moves any
answer, error message or key order fails here.
"""

import hashlib
import json

import pytest

from gradedalg import cli, fileio
from gradedalg.construct import t_of
from gradedalg.corpus import gen_example

COMMANDS = {
    "validate": [],
    "info": [],
    "nakayama": [],
    "selfinj": [],
    "gldim": [],
    "trivext": [],
    "beilinson": [],
    "equiv": [],
    "derive-sigma": [],
    "corner": ["--idempotent", "0"],
}


def build_inputs(rebased_nakayama) -> dict:
    """Name -> algebra for every input file."""
    n43 = rebased_nakayama(4, 3, 43)
    return {
        "truncated_poly": gen_example("truncated_poly"),
        "exterior": gen_example("exterior"),
        "product_counterexample": gen_example("product_counterexample"),
        "upper_triangular": gen_example("upper_triangular"),
        "rebased_N32": rebased_nakayama(3, 2, 32),
        "rebased_N43": n43,
        "t_rebased_N43": t_of(n43),
    }


def report_digest(path, command, out) -> tuple[int, str]:
    """Exit code and SHA-256 of the report of one command, without timing_s."""
    code = cli.main([command, str(path), *COMMANDS[command], "--out", str(out)])
    report = json.loads(out.read_text())
    del report["timing_s"]
    return code, hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


# generated before the change that introduced this file, on its parent commit
DIGESTS = {
    ("exterior", "beilinson"): (0, "8731252cf19c5810e3d4ae854f5cc76d50a10c04d2bcb2f6be9025f1d03a8f65"),
    ("exterior", "corner"): (0, "5c8c260acfc708586d53d9c2e71a15acd3c87ecc35f78e40db504ece129967e1"),
    ("exterior", "derive-sigma"): (2, "c2cfd4c290c4222bc9f23e5da6908fa151af75c6d810b511aa69c8f0af9f66e8"),
    ("exterior", "equiv"): (0, "f021ca44b7aa1f09d78939fd78b8942108c88fcd585409b4bb31bc9a272cd42d"),
    ("exterior", "gldim"): (0, "06f48c0f0cf64750e499e72aec4ea6c4f5fed9073ebc8faa9a6a1a35649c6b10"),
    ("exterior", "info"): (0, "d703ec604f6683865e9698efd9df0f79f15a71e1f8959397a2c0902f72edd540"),
    ("exterior", "nakayama"): (0, "a6b6155c0fcd8299ebb0c1f2ec274e6004ccc30efff3bcc71b30920a94a97472"),
    ("exterior", "selfinj"): (0, "eea7b94141aff7c7b7fef1a9e007687358d6a35adca66a3565e7bc0b76babd31"),
    ("exterior", "trivext"): (0, "b0d2fedd20604842e9c1ae1a3e33b821671dba2d24495d9167583b04faa9a33f"),
    ("exterior", "validate"): (0, "06a74e53e60a0d2d156dedf0af51328b9e4f0e7b68334768ec39e070587fecd9"),
    ("product_counterexample", "beilinson"): (0, "95311bc6b06810bc77247882d9fa5ff3a12ad6c89832be6c37d4eab7de6f1a66"),
    ("product_counterexample", "corner"): (0, "bc6756ff6b6225d114a02f720f8694381575516545bbb2885e3ff65792e59e00"),
    ("product_counterexample", "derive-sigma"): (2, "48963f8064ed6d8c538650331fd55fbf2c712f1098853abacd24af5b97d3f403"),
    ("product_counterexample", "equiv"): (2, "b735270f4bfae89e93a0ed7a6df34228dcf0b3aa37b2351e56619636a6f7f685"),
    ("product_counterexample", "gldim"): (0, "92eaf88ed400424f9b9e8b654f48a44589cb2a1931bfaaa0b2b4d872713b0464"),
    ("product_counterexample", "info"): (0, "3ec921791f01d510f1b5088a958230f268419da061c8a5486bbc4ce8738cbfb3"),
    ("product_counterexample", "nakayama"): (0, "ce1fe1539f10d0cc06e0a13379af679ef9b2c560fe82e77d1b3001324eae4e8f"),
    ("product_counterexample", "selfinj"): (0, "58a8f84e2df0a963c4d2e6f849c05f66086fdb6a04aa389b7b7865e24ce82b87"),
    ("product_counterexample", "trivext"): (0, "52c6da7dfcd91a8555de831e1994b999cf6de5ec730bc0c37a406703f8c62920"),
    ("product_counterexample", "validate"): (0, "9f681bfb65bb483eb1be55a2743a1b00d27188e534c5140a236604a383858f8a"),
    ("rebased_N32", "beilinson"): (0, "7e7264ec6da58fab5d9e75a09e7d0a5369cfe7bae48ed7649936e25c52cf2dd6"),
    ("rebased_N32", "corner"): (0, "24fe5ba604821b0488f4b41fdfceacb6df288447be834c3871b54c06e1bfc519"),
    ("rebased_N32", "derive-sigma"): (2, "d6d582a3ec02fbb300c08723862d258a5c423edda98dd42152b51fe9d52ce1df"),
    ("rebased_N32", "equiv"): (0, "454587231a371d998809c8149a5546dd6387e357d1a4ec43325eb0180774a2ac"),
    ("rebased_N32", "gldim"): (0, "ffd7b42094ce9f468d7011bb65d9228fb47b11e1453de84590971f98b20524c6"),
    ("rebased_N32", "info"): (0, "d6e0da2db161f45427f298bef9ea8de1025817dbf37b0e3054f208310b47be46"),
    ("rebased_N32", "nakayama"): (0, "7e30a70ecc09e9fd4ffd583a46063caac007626c3e15a5a3c6a042bf155114de"),
    ("rebased_N32", "selfinj"): (0, "bc7289ab05844b153c1d0a7b297f0d06f844ef46dbb19f742a4b1977be0ab576"),
    ("rebased_N32", "trivext"): (0, "78725fd883c8293d40596f0957777fd2e62b6f1521db5aab73ebc7646e5c8fbe"),
    ("rebased_N32", "validate"): (0, "4e77ab38fc58515bfa9b6e72e88a79df8eb9a8a033dd19dabbbbdf198b943254"),
    ("rebased_N43", "beilinson"): (0, "56db1d2687bd831ba1b0ed7f5e0070aff5349d5cfbe8423408bccbbbdd041235"),
    ("rebased_N43", "corner"): (0, "65c0c0d8e36cd50c253854d1b5f214430442113f31ef3ddd65fa1ea31d87d011"),
    ("rebased_N43", "derive-sigma"): (2, "c8a38a7fdea8ea4a3b08396487b030ca700636017a92d39ff30ad5209d5d7049"),
    ("rebased_N43", "equiv"): (0, "ed14f11cdb23462298ee7f50f68cd1518ef19b26830dd8a41a465bf567e824fe"),
    ("rebased_N43", "gldim"): (0, "3aa648cff5cb40a4f7cf2aed60f31e88a54e37118a92472691fbbffa2c45eb50"),
    ("rebased_N43", "info"): (0, "a850fde8ea4bb05d9891de823c86a0dfba5437d808c174c6aafe903044441ea1"),
    ("rebased_N43", "nakayama"): (0, "00af84c5b8528ecb86b36dcebd33ef5c7384f9bfc9a30803f342eb9b3a4c310b"),
    ("rebased_N43", "selfinj"): (0, "71d96b205c87a753261766eff3cc1210432ef27971d1ac78a8e4472690c97feb"),
    ("rebased_N43", "trivext"): (0, "c17c78a3c7c15b10eb3e7197ffec6a885f5664c044a17b1777fd22ed58977c2e"),
    ("rebased_N43", "validate"): (0, "afc2b7dd8e245787d991077a832e465eccbae634538376ddf98b421bb363003f"),
    ("t_rebased_N43", "beilinson"): (0, "868faa31328e72e71269f5bd34802159077169d0185ff02770f82249e53a7cf5"),
    ("t_rebased_N43", "corner"): (0, "70a6b400a2f850cbf6614bc00b821a7290402d5346173b4d87c52a50e5fce18e"),
    ("t_rebased_N43", "derive-sigma"): (0, "10742c97c8286d7217fdad9fabde1ff040fce63a94c70e560aa7f7686edddf5f"),
    ("t_rebased_N43", "equiv"): (0, "7313669f1119cb57b9e29d42ee526ae784e72ef15b4a321d4a48e600a1025dbd"),
    ("t_rebased_N43", "gldim"): (0, "7f5c852fa367d39250e266dab6fde78756fc580a96bc92db58d0dccf2dd24472"),
    ("t_rebased_N43", "info"): (0, "1ae8d277259dffeb5ec26802dc8a367f2ac479f65accf23899fcd922e9d5a566"),
    ("t_rebased_N43", "nakayama"): (0, "c379b2ea394e7871fd0b869178f8e1783186ca0b841704091159b9602b5ef8b4"),
    ("t_rebased_N43", "selfinj"): (0, "5c615a85b22766ce69b6f30630a2cab4d1d8110b84d5778acbbf75abdd1ed045"),
    ("t_rebased_N43", "trivext"): (0, "ec13a3cd96985547594ea85322e32fc5c8a47359cab9fd255c28bc1dfad91ea0"),
    ("t_rebased_N43", "validate"): (0, "e8c00af03441d5cbda5183a71bb773b70bf175fd017035be1ea239c1a241a363"),
    ("truncated_poly", "beilinson"): (0, "0115580e6e851f6efc578e34613eb84097e9063f9d42005295dfe7a4391e50cd"),
    ("truncated_poly", "corner"): (0, "864a12f3bf096ec44c7ce38c04112549cc15ecee46621429da3965e899e59424"),
    ("truncated_poly", "derive-sigma"): (2, "4571b3e18baa8ffd3776e479b02a17a778fd8d705ca75c6c2d2516ffb4ca8eab"),
    ("truncated_poly", "equiv"): (0, "1a72c0ea80bf9b75ae45e7935c52383de83a612b5f180f3dcfc19459889fa8ba"),
    ("truncated_poly", "gldim"): (0, "42c025b22f9c31eca60f9e1c28caa1c8c973cf086063e6b8c4bfb50f7d0e2dd1"),
    ("truncated_poly", "info"): (0, "7cf19a660f7b697bae1e9bb6534a7d6c0858647014083a600c305891645af6f4"),
    ("truncated_poly", "nakayama"): (0, "bbb2fc93d776182abe1e9e51ab90b7d0dc3227f6f893dc0dc7b39779fc03b65e"),
    ("truncated_poly", "selfinj"): (0, "6747ce751fbaf3a44ad65d9d047b22c7a8c4d06c402dbcb0b2868e5c0717cea4"),
    ("truncated_poly", "trivext"): (0, "6719c16dcd1a4803d802dea2a6519db39026334e0ebb1a00fa7e77b43673a392"),
    ("truncated_poly", "validate"): (0, "4ca3ea9a8eb64e757d0daad7af7c87bd43222504b1f24f4867d238f539ba1f40"),
    ("upper_triangular", "beilinson"): (2, "71f7bdfaabc9d637e8a69a9240697ec81e7fc1fa55f6e051e1861467e06db45f"),
    ("upper_triangular", "corner"): (0, "8ad9e17004264c34ba825e3332e08622632c951100e4b2e85c4191f69eb07964"),
    ("upper_triangular", "derive-sigma"): (2, "9ff55134a5835cad7c80b7d3c6abb80fff3a4386558baa244d1017bb4b86c26a"),
    ("upper_triangular", "equiv"): (2, "4fb395405fdf3b9f442d2355a7b0a935d3a6fc8793b28229f6a0152b836c3d68"),
    ("upper_triangular", "gldim"): (0, "52560e9d18425fca6063ea72353f7a9bb787d76f2278ccc94cdd7ac7482ae8f1"),
    ("upper_triangular", "info"): (0, "488aa2d4280f075a091e848cb327f72e901d0590d2646c2eb4e7a0c8acd7a698"),
    ("upper_triangular", "nakayama"): (2, "f03852b94ccaeb4cc841d67f0311f58abf5e4b285cc2b851a4a15879a58d59bc"),
    ("upper_triangular", "selfinj"): (0, "1fe3d92b509c42fa0256633710d38f806dfe763e67068a00fd6a76faf628e450"),
    ("upper_triangular", "trivext"): (2, "14117a56f142ec134ebc4a36627b229efec99f87a7537b4438e56fa7c8d255df"),
    ("upper_triangular", "validate"): (0, "0e6d89efa0c791fba99c127ce9462d0721e6a987a796af25ac746eca99550655"),
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory, rebased_nakayama):
    root = tmp_path_factory.mktemp("digest_inputs")
    paths = {}
    for name, a in build_inputs(rebased_nakayama).items():
        paths[name] = root / f"{name}.json"
        fileio.save(paths[name], a)
    return paths


def test_every_input_and_command_is_pinned():
    names = {"truncated_poly", "exterior", "product_counterexample", "upper_triangular",
             "rebased_N32", "rebased_N43", "t_rebased_N43"}
    assert set(DIGESTS) == {(n, c) for n in names for c in COMMANDS}


@pytest.mark.parametrize("name, command", sorted(DIGESTS))
def test_report_digest(input_files, tmp_path, name, command):
    assert report_digest(input_files[name], command, tmp_path / "report.json") == DIGESTS[name, command]
