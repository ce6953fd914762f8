"""The README command list, pinned byte for byte.

Each ``phasequant`` command of README's ``sh`` blocks runs through
``cli.main`` in one working directory, in order, with the ``nfm-sim``
config file of README written there first.  Output paths are relative,
as README gives them, because ``--config`` enters every file's header.
The exit code, the SHA-256 of stdout and the SHA-256 of every file named
by ``--out`` and ``--summary`` are compared with recorded digests.

The digests hold on the platform they were recorded on (x86-64 Linux,
numpy's and the C library's double routines), like the bit-pinning tests
of ``test_repalg``.
"""

import hashlib
import pathlib
import re
import shlex

from phasequant import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# command -> (exit code, stdout digest, {output file: digest})
PINNED = {
    'repr --k 0.5 --dim 64 --name kplus --out kplus.csv': (
        0, '3141eebf5767f3eb61202768271588f3d9ec36eb12c4441a52423a5c324c00cf',
        {'kplus.csv': 'c8eed9a71106ef94c79493ddb715896f8ff71f603bcf12a07ce89556d060c555'}),
    'repr --k 0.5 --dim 64 --name k3 --format json --out k3.json': (
        0, '651658144d2579d9b63a160ce436e59b538b9e0e0b982b13b945660c7fb2a3d3',
        {'k3.json': 'c1cb1feff3fe145b714b477f097c429726ffd8c9f58905987d25b90d897a8cd9'}),
    'phase-spectrum --k 1.0 --dim 2000 --out spectrum.csv': (
        0, 'fc017e98c2559eee039fdcbf5e23d38e1ef7e5f40467f1744b2768887559401a',
        {'spectrum.csv': 'badc52017362f5cc36a5a38e3ed40d1ea62cdc6a6744a0dabf9de25921412c21'}),
    'ground-variance --k 0.5 --k 1.0 --out gsv.csv': (
        0, '9f73ef9e3f3837b8b693de495b5a5a00f596071032ea9ee1fa669023ba3a3dcb',
        {'gsv.csv': '1cdf4c82378c037b74394c29c194e911b5f3779abed7e304db5503ccea8bee08'}),
    # The digests of kbound-scan, coherent, oscillator, both nfm-sim commands
    # and verify-all were recorded after every summed series became a table
    # of term ratios multiplied out from its largest term.  What moved, with
    # the distance to mpmath at 25 digits before -> after:
    # - scan.csv: 5896 of 7800 ratios in their last digits, at worst
    #   2.05e-15 -> 6.2e-16; scan.json: 33 of 39 sups in their last digits.
    #   Verdicts, argmax_rho and the flip bracket are unchanged.
    # - coh.json and coherent's stdout: b_k ...917 -> ...918 (1.2e-16 ->
    #   2.4e-17), k3_mean ...752 -> ...757 (5.1e-17 -> 8.4e-17), k3_variance
    #   ...569 -> ...5676 (8.3e-16 -> 7.7e-17), cos_mean ...522 -> ...525
    #   (3.1e-16 -> 2.0e-16), sin_mean ...309 -> ...312 (5.3e-16 -> 1.9e-17),
    #   var_k1/var_k2 ...876 -> ...878 (5.1e-17 -> 8.4e-17), and the last
    #   digit of eigenvector_residual; dim is 17 as before.
    # - h2.csv and oscillator's stdout: 173 of 200 h2 values in their last
    #   digits, at worst 1.1e-15 -> 5.3e-16 (max h2 ...174 -> ...175).
    # - nfm-sim: 88 of 100 trials rows and max_err_k1/k2, phi_mean, phi_std
    #   and rho_std of run.json in their last digits.
    # - report.json: the normalization detail 1.110e-15 -> 9.992e-16.
    'kbound-scan --out scan.csv --summary scan.json': (
        0, '7613de6f34735f980040a74d327cdf39e91781711800d3ad84f74174af816c93',
        {'scan.csv': 'eefa8d2d7199dde62f6e577bc1692863ce0d0dcdedf33e894fbb7b4ff6ae4987',
         'scan.json': '55610248e20b17a2132b3786f0bed4a4780f4ee48e65e097a16609ef2fb7d354'}),
    'coherent --k 1.0 --rho 3.0 --phi 0.785 --format json --out coh.json': (
        0, '36c1dda8e58d335f5d467e29bbfcf16839e32624110036c7f69ce9f981446395',
        {'coh.json': '3d17b93dd5797f68e8c187ca859359a48e88503ff6de7ac8a9ae9838e39cf366'}),
    'completeness --k 1.0 --n 3 --out comp.csv': (
        0, '280f3e9d39696b352b5c709df28605966bd1045b72cef894fecd5f0d1e31ed7b',
        {'comp.csv': '42b35fc2cb50fd2d3f7b81855488c709be921658ad59613f5b0308d65efc4fc5'}),
    # oscillator was recorded again after h1 and h2 became means over
    # windowed tables of at most 2^16 entries (two blocks of radii here, one
    # matrix-vector product per mean): 120 of the 200 h2 values moved in
    # their last digits, at worst 5.3e-16 -> 6.1e-16 from mpmath at 30
    # digits (mean 1.3e-16 -> 1.7e-16 over the moved values), and max h2 =
    # h2(20) ...175 -> ...182 (1.0e-16 -> 5.6e-16).  Every other file and
    # stdout, scan.csv included (one block per k), is unchanged.
    'oscillator --k 0.5 --r-max 20 --points 200 --out h2.csv': (
        0, '94e011dcb58176d01125ef442d0ecb7fb044090726ed29083aa4cecf4c4573fe',
        {'h2.csv': '8289e438470b37c689317c95743fb4297ed7c7b09a0d6d9a4212c393f4ce2cd8'}),
    'two-mode --dim-per-mode 24 --out sectors.csv': (
        0, '2931eed0656aae1045ce3c4cd4fceda2f9f53f78a6b50649b17c1ddda9c305f9',
        {'sectors.csv': '33d8199c4f9c924661478987b6e009c87fa458922ce57c457d3277193333c341'}),
    'nfm-sim --kind bg --k 1.0 --rho 3.0 --phi 0.5 --noise 0.01 --trials 100 --seed 7 '
    '--out trials.csv --summary run.json': (
        0, '7d4a47338ee1c70a4860417b3b10d4ec9cda9faa7c9d40e6d4e633cb7f415bff',
        {'trials.csv': '09d74e40e962bff9b0b8962c82715a756a3d03a3f117c4f8e0bf4ad59ead90dd',
         'run.json': '2a88828625a69109829362746b033294265ef695da08e4bb4b0d44315376d94a'}),
    'nfm-sim --config run_config.json --out trials.csv': (
        0, '7d4a47338ee1c70a4860417b3b10d4ec9cda9faa7c9d40e6d4e633cb7f415bff',
        {'trials.csv': 'c485690c0825d30544b8c72dfb541533759e8b82325b6e2af9099979280e76d3'}),
    # report.json was recorded again after the battery drew its seeded points
    # from the standard library's random.Random instead of numpy's
    # default_rng, with the same seeds, counts and ranges.  Five details
    # moved, every verdict stayed: three-term recurrence 1.537e-14 ->
    # 1.950e-14, I/K Wronskian 3.109e-15 -> 4.219e-15, overlap
    # Cauchy-Schwarz 0.997164456877 -> 0.997048847587, classical round trip
    # 8.882e-16 -> 5.551e-16, gauge-shift invariance 9.494e-16 -> 7.212e-16.
    'verify-all --out report.json': (
        1, '935f9354d42acf9c3a76ded2b63c9544520721af4560b839798e96f19af15346',
        {'report.json': '3818337fa0c7f7fce3ddb00e52ee36466aba4db0d405dbe02e44d39aba617c9b'}),
}


def _readme_commands() -> tuple[list[str], str]:
    # the ``phasequant`` lines of README's sh blocks (continuations joined),
    # and its nfm-sim config file
    text = README.read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    commands = [" ".join(line.split()[1:]) for line in blocks.splitlines()
                if line.startswith("phasequant ")]
    config = re.search(r"A `nfm-sim` config file looks like\n\n```json\n(.*?)```", text,
                       re.S).group(1)
    return commands, config


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_readme_commands(capsys) -> dict:
    commands, config = _readme_commands()
    pathlib.Path("run_config.json").write_text(config)
    record = {}
    for command in commands:
        argv = shlex.split(command)
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        files = {argv[i + 1]: _digest(pathlib.Path(argv[i + 1]).read_bytes())
                 for i, flag in enumerate(argv) if flag in ("--out", "--summary")}
        record[command] = (code, _digest(stdout.encode()), files)
    return record


def test_readme_commands_write_the_pinned_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = run_readme_commands(capsys)
    assert len(record) == 12
    assert record == PINNED

