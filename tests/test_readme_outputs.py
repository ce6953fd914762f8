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
    'kbound-scan --out scan.csv --summary scan.json': (
        0, '7613de6f34735f980040a74d327cdf39e91781711800d3ad84f74174af816c93',
        {'scan.csv': 'd01b12a200fb4222b38ebe9d603651be91673d59de6248d2ffc1b315520752f2',
         'scan.json': 'b13aa61f3fa071d3d9a95fbc5c1129c3fa66d756aea2bcdf20708a89781f17a6'}),
    # recorded after b_ratio became one series mean over the phase table:
    # b_k, k3_mean, k3_variance and var_k1/var_k2 moved in their last digits
    # (k3_mean now correctly rounded), and with them nfm-sim's trials and summary
    'coherent --k 1.0 --rho 3.0 --phi 0.785 --format json --out coh.json': (
        0, '1d9ada2b7260b2295f007a59b1e3ba9c23457d78440e7c771ef65fd4436792fe',
        {'coh.json': '122e60c4868f863ea8b81d1f2e77b12cd417182b8c7f46a9056d9f6caaa4b772'}),
    'completeness --k 1.0 --n 3 --out comp.csv': (
        0, '280f3e9d39696b352b5c709df28605966bd1045b72cef894fecd5f0d1e31ed7b',
        {'comp.csv': '42b35fc2cb50fd2d3f7b81855488c709be921658ad59613f5b0308d65efc4fc5'}),
    'oscillator --k 0.5 --r-max 20 --points 200 --out h2.csv': (
        0, 'e150b2337297e099ff3ef10b0355be0f4879b40eda60b44213bdda58f20859ea',
        {'h2.csv': 'c7ad58dd9e0d2d63ab5757de413af91aafbbf56ef87236dfc76dac633ff00839'}),
    'two-mode --dim-per-mode 24 --out sectors.csv': (
        0, '2931eed0656aae1045ce3c4cd4fceda2f9f53f78a6b50649b17c1ddda9c305f9',
        {'sectors.csv': '33d8199c4f9c924661478987b6e009c87fa458922ce57c457d3277193333c341'}),
    'nfm-sim --kind bg --k 1.0 --rho 3.0 --phi 0.5 --noise 0.01 --trials 100 --seed 7 '
    '--out trials.csv --summary run.json': (
        0, '7d4a47338ee1c70a4860417b3b10d4ec9cda9faa7c9d40e6d4e633cb7f415bff',
        {'trials.csv': 'ef86ec631933a864c421fea99d1f46cee45dc758a5ea5a951c1628ae9d7f6628',
         'run.json': '7d316d42e82fc1d714b86ab90da416ee82f5a3af89b91467b365f3ed1294cd4b'}),
    'nfm-sim --config run_config.json --out trials.csv': (
        0, '7d4a47338ee1c70a4860417b3b10d4ec9cda9faa7c9d40e6d4e633cb7f415bff',
        {'trials.csv': 'db1432e1597ec69a32c8fe5c716f16797d6dc30ed33d88d0f372ebd970584bda'}),
    'verify-all --out report.json': (
        1, '935f9354d42acf9c3a76ded2b63c9544520721af4560b839798e96f19af15346',
        # recorded after I_nu became one ascending series summed about its
        # largest term: the three-term recurrence's detail moved from
        # 3.494e-14 to 1.537e-14
        {'report.json': '66afa32a4b590c074de51fa053bbf739137149ee978a37ec3bd59ff438826c60'}),
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

