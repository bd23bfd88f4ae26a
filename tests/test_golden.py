"""Frozen CLI outputs: exit codes and sha256 of every file written.

Every single-problem preset is solved in each of the four CLI modes at
nx = 64 (field CSV at t = 0, 0.5 and 1, a report, and a trace CSV in
limit mode), and the suite verb runs on every preset (field and trace
CSVs on single problems, a report everywhere).  Runs whose preset cannot
support a mode keep their exit code 2 in the table.  Refactors of the
stepping, reconstruction and limit code must leave the table unchanged.
"""

import hashlib
import json

import pytest

from gobstacle import cli
from gobstacle.presets import list_presets

SINGLES = [p.name for p in list_presets() if p.kind == "single"]
MODES = ("penalized", "reflected_lower_pen_upper", "projection", "limit")


def _run_case(tmp_path, monkeypatch, verb, preset, mode=None):
    """Run one CLI case in tmp_path; returns (exit code, {file: sha256})."""
    monkeypatch.chdir(tmp_path)
    cfg = {"preset": preset, "grid": {"nx": 64},
           "output": {"report": "report.txt"}}
    single = preset in SINGLES
    if verb == "solve":
        cfg["mode"] = mode
    if single:
        cfg["output"].update(field_csv="field.csv", slices=[0.0, 0.5, 1.0])
        if verb == "suite" or mode == "limit":
            cfg["output"]["trace_csv"] = "trace.csv"
    with open("cfg.json", "w") as fh:
        json.dump(cfg, fh)
    code = cli.main([verb, "-c", "cfg.json"])
    digests = {}
    for name in ("field.csv", "trace.csv", "report.txt"):
        path = tmp_path / name
        if path.exists():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return code, digests


GOLDEN = {
    ('solve', 'constant-sandwich', 'penalized'): (0, {
        "field.csv": "6a9f89e6977e5be4a6b84d4827a4a65028698cf2581222d5cddb48db627bcf9d",
        "report.txt": "77b2df9790c8e002df5a282867d27013345e4941f06bda8f1b5327fd62218d13",
    }),
    ('solve', 'constant-sandwich', 'reflected_lower_pen_upper'): (0, {
        "field.csv": "6a9f89e6977e5be4a6b84d4827a4a65028698cf2581222d5cddb48db627bcf9d",
        "report.txt": "fe803fe7d7ffc8f4f96f727a0eec5121aeb7b9408a7948f14af5eeb88c633798",
    }),
    ('solve', 'constant-sandwich', 'projection'): (0, {
        "field.csv": "6a9f89e6977e5be4a6b84d4827a4a65028698cf2581222d5cddb48db627bcf9d",
        "report.txt": "e9ceac56ae74a593283de1c69c9d7bd9f3590460af725c26c1a88462e767a6d5",
    }),
    ('solve', 'constant-sandwich', 'limit'): (0, {
        "field.csv": "6a9f89e6977e5be4a6b84d4827a4a65028698cf2581222d5cddb48db627bcf9d",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "3e02c3ad2902fd4789a1828f25057a88a9742b252fd176b83bf27f1322585ae9",
    }),
    ('solve', 'gheat-quadratic', 'penalized'): (0, {
        "field.csv": "ea1e5551b2c3aa6a8fd1d4ca95692c70a82be9b37737bd24e464ec1b7dcb4cfd",
        "report.txt": "d3ffa6a142c14675581809e312044ad9f6886c7eabbe4d51c838452756909c25",
    }),
    ('solve', 'gheat-quadratic', 'reflected_lower_pen_upper'): (2, {
    }),
    ('solve', 'gheat-quadratic', 'projection'): (2, {
    }),
    ('solve', 'gheat-quadratic', 'limit'): (0, {
        "field.csv": "ea1e5551b2c3aa6a8fd1d4ca95692c70a82be9b37737bd24e464ec1b7dcb4cfd",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "3e79c6ca018844c66e88bc15d0d1b723beffbc73a558e5ee4300364d588be72c",
    }),
    ('solve', 'gheat-concave', 'penalized'): (0, {
        "field.csv": "d344abf35ba37cc2d7e59cbf1a956b1d517fcb9faba940504eb230a4e2b39b99",
        "report.txt": "cc18df234d1c3169058b94ac4002cda7a817679439d980a897813dffa4145519",
    }),
    ('solve', 'gheat-concave', 'reflected_lower_pen_upper'): (2, {
    }),
    ('solve', 'gheat-concave', 'projection'): (2, {
    }),
    ('solve', 'gheat-concave', 'limit'): (0, {
        "field.csv": "d344abf35ba37cc2d7e59cbf1a956b1d517fcb9faba940504eb230a4e2b39b99",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "7a4b5292eb8b7201bb1e70ab15347c89f64265f04c1d8efb2aa3ac5aa567a6d1",
    }),
    ('solve', 'upper-active', 'penalized'): (0, {
        "field.csv": "068acf97d987acf47ae2a8f8be6a9cef84c9fbccccd12f2af3f968dcf34f53f4",
        "report.txt": "5bc3755e4ce2abdb265b726c643a21f244f977a7ade84ee549dcf5cf5bba9c95",
    }),
    ('solve', 'upper-active', 'reflected_lower_pen_upper'): (2, {
    }),
    ('solve', 'upper-active', 'projection'): (0, {
        "field.csv": "45ae80368dad9db500312aa1cad42724b2d024b921093abdcc84b7aee91c01da",
        "report.txt": "1a8267a31559026f39e0ad6381998713a7ebc49868a6641e626cecdabbfe4fc2",
    }),
    ('solve', 'upper-active', 'limit'): (0, {
        "field.csv": "4e902af4c9aa78bf7f1bb24304cc179f4800e81ef885237c9bf293354955bacb",
        "trace.csv": "89e97ead8447b0e4bb8c2c4fb7d29b9fdc35d713fcecfd13ec2ed558112a303b",
        "report.txt": "5efda4fb809c1d4be160b67816b4df7c38ab4fafb88c8ce7119d9fdc6c070418",
    }),
    ('solve', 'lower-active', 'penalized'): (0, {
        "field.csv": "eafc6d45292c8c9ceb5e3f569ae276bf1c5af0a65b08e13e73b9e27f79e61963",
        "report.txt": "acac381b08a41dd3fbabf7e4ae87e5476270a5da5b17a25a17b84014f3ce0e5f",
    }),
    ('solve', 'lower-active', 'reflected_lower_pen_upper'): (0, {
        "field.csv": "1dcc93fa436250dd55155c5f641595c315af1be21bdcf218e1dfea999b99aa64",
        "report.txt": "35c8bb287c547cecf38310cddc802164a36dd06d4ab5b8b3153c3e9d62e6110a",
    }),
    ('solve', 'lower-active', 'projection'): (0, {
        "field.csv": "1dcc93fa436250dd55155c5f641595c315af1be21bdcf218e1dfea999b99aa64",
        "report.txt": "04c4c3d843fa5962f12b7ac3196150d977e542c0c0a72b52860889110ef27904",
    }),
    ('solve', 'lower-active', 'limit'): (0, {
        "field.csv": "59f9ab979689fb097e043a3aa65a603353e9204119eaad35faa9447674e98d87",
        "trace.csv": "25ee7693c67fdd6b335d5a58ab92d264828f12bca23520a9a4a0fa711234f14d",
        "report.txt": "8fc9f8a6e4264f03206bb8ade92cddae944652e7f8e2df2c25f67494c2bb6fc0",
    }),
    ('solve', 'double-active', 'penalized'): (0, {
        "field.csv": "918cc28cb73c755931d3aa8af0d8f6bdc8a3f53dbc56dc20fcdd97d11e74fdbd",
        "report.txt": "a5cecd671c573d0ba9b074c76d65df60871c42a3b18d1abf1c384f3f127b1297",
    }),
    ('solve', 'double-active', 'reflected_lower_pen_upper'): (0, {
        "field.csv": "cfb9a1f318c59480bb0f39b0a82bb2a355c12b2d8b87e606bd7c31db6d61b0a7",
        "report.txt": "1bff04340a0c12ff238ad42957110522b0164fb3248738fb72284ff24d0f4bbb",
    }),
    ('solve', 'double-active', 'projection'): (0, {
        "field.csv": "a450a96ed5b1a9476ea90b0ebe3cae3d36b32dd6c137d469d5b6a5e15421b933",
        "report.txt": "fe015728472971351c547c3f0f464492ede831847bbdef4c2b697bc8432b9ca7",
    }),
    ('solve', 'double-active', 'limit'): (0, {
        "field.csv": "4ff2a9339cc2ad32da2954bae445f0634a62ab83b8fe8d69ee929c30ca5eee5b",
        "trace.csv": "5e07daa6d9d507dddeee9ef240f787ff38b7706d3796ec785ca22a00eff8bd71",
        "report.txt": "ff3e95076a8d31df7d17e0b708a510aea064582a8b15ea61503e6342f4e517c4",
    }),
    ('solve', 'quadratic-gen-colehopf', 'penalized'): (0, {
        "field.csv": "882de19346a0c0a866d47f3bcb823015c492d9e562cd23485db4270f767d5eab",
        "report.txt": "63a98c975a29b073e92c43748b522f971c5f203d59cb2a2bc35845b56df08dcb",
    }),
    ('solve', 'quadratic-gen-colehopf', 'reflected_lower_pen_upper'): (2, {
    }),
    ('solve', 'quadratic-gen-colehopf', 'projection'): (2, {
    }),
    ('solve', 'quadratic-gen-colehopf', 'limit'): (0, {
        "field.csv": "882de19346a0c0a866d47f3bcb823015c492d9e562cd23485db4270f767d5eab",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "a466d8da38de0cb69656df4e66d68f1bf87a1daf8e035c338af0f2d88b775349",
    }),
    ('solve', 'quadratic-drift', 'penalized'): (0, {
        "field.csv": "2519cfc9da46b0f8d0c6f7d406be1e8dfaff067a46a55c18f0eef50db7ccdc29",
        "report.txt": "fa8f40d854b0006adef8b71fb0e878097ac67755b91ad151fe4c1318db397b45",
    }),
    ('solve', 'quadratic-drift', 'reflected_lower_pen_upper'): (0, {
        "field.csv": "2519cfc9da46b0f8d0c6f7d406be1e8dfaff067a46a55c18f0eef50db7ccdc29",
        "report.txt": "ed0905eff173eed58320768b50b66c7ca6a9b2cb957f1e9431b87567ef9bdd8e",
    }),
    ('solve', 'quadratic-drift', 'projection'): (0, {
        "field.csv": "2519cfc9da46b0f8d0c6f7d406be1e8dfaff067a46a55c18f0eef50db7ccdc29",
        "report.txt": "3597e3a056d5a4c1256e65e48d40595d59d5aa3c72d0d16810ef661d3f8c2173",
    }),
    ('solve', 'quadratic-drift', 'limit'): (0, {
        "field.csv": "2519cfc9da46b0f8d0c6f7d406be1e8dfaff067a46a55c18f0eef50db7ccdc29",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "c29994defa95b69fa53e9cd626e59c7ac9613a8657bb4b031d95fc661b6aef76",
    }),
    ('suite', 'constant-sandwich', None): (0, {
        "field.csv": "6a9f89e6977e5be4a6b84d4827a4a65028698cf2581222d5cddb48db627bcf9d",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "75b49ffe638ccbfd6fc6d11545c18b5b53550dbf9ca40dae988fb6d4114f4833",
    }),
    ('suite', 'gheat-quadratic', None): (0, {
        "field.csv": "ea1e5551b2c3aa6a8fd1d4ca95692c70a82be9b37737bd24e464ec1b7dcb4cfd",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "55f4edc3be09b3bd20728ee3e1a274a24002e165460be65239beb3c52e90eced",
    }),
    ('suite', 'gheat-concave', None): (0, {
        "field.csv": "d344abf35ba37cc2d7e59cbf1a956b1d517fcb9faba940504eb230a4e2b39b99",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "c6c02baeae9e65f94d6fa474e5b089b1e063750c8f27af62bf56b77909c6b54c",
    }),
    ('suite', 'upper-active', None): (0, {
        "field.csv": "4e902af4c9aa78bf7f1bb24304cc179f4800e81ef885237c9bf293354955bacb",
        "trace.csv": "89e97ead8447b0e4bb8c2c4fb7d29b9fdc35d713fcecfd13ec2ed558112a303b",
        "report.txt": "16150a4bcbfd271865165c139ddcf501196d2fcbdf15ba7f3d06a6f43d458e3d",
    }),
    ('suite', 'lower-active', None): (0, {
        "field.csv": "59f9ab979689fb097e043a3aa65a603353e9204119eaad35faa9447674e98d87",
        "trace.csv": "25ee7693c67fdd6b335d5a58ab92d264828f12bca23520a9a4a0fa711234f14d",
        "report.txt": "ca03c5e00be5512fcaf0c2ef788469db4fe008bc1075b15bf8c6dba710942a2e",
    }),
    ('suite', 'double-active', None): (0, {
        "field.csv": "4ff2a9339cc2ad32da2954bae445f0634a62ab83b8fe8d69ee929c30ca5eee5b",
        "trace.csv": "5e07daa6d9d507dddeee9ef240f787ff38b7706d3796ec785ca22a00eff8bd71",
        "report.txt": "a58bdb843c08a237b71b58b5c77690a689614c9d32cc37dc5932842692863ed2",
    }),
    ('suite', 'quadratic-gen-colehopf', None): (0, {
        "field.csv": "882de19346a0c0a866d47f3bcb823015c492d9e562cd23485db4270f767d5eab",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "7b0a3ca3c3207529f517388b496da354b302ede153f4b97cb09452b4112f2162",
    }),
    ('suite', 'comparison-pair', None): (0, {
        "report.txt": "177559cd55ccafc133ab92632db5f5dc932ef87224586ca67472d557f44b75ca",
    }),
    ('suite', 'quadratic-drift', None): (0, {
        "field.csv": "2519cfc9da46b0f8d0c6f7d406be1e8dfaff067a46a55c18f0eef50db7ccdc29",
        "trace.csv": "9ce4d7b051b737362b1171819bfad9f42261e4072eb738d6a3fab2cf2315db71",
        "report.txt": "569d687454cec67927ff60b12c4eb0710a14348decdb3f52ff62f7e6b81d430f",
    }),

}


CASES = [("solve", p, m) for p in SINGLES for m in MODES] \
    + [("suite", p.name, None) for p in list_presets()]


@pytest.mark.parametrize("verb,preset,mode", CASES)
def test_cli_outputs_match_the_frozen_table(tmp_path, monkeypatch, capsys,
                                            verb, preset, mode):
    want_code, want_digests = GOLDEN[(verb, preset, mode)]
    code, digests = _run_case(tmp_path, monkeypatch, verb, preset, mode)
    assert code == want_code
    assert digests == want_digests
